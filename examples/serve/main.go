// Serve: drive a running hydroserved daemon through the client
// package — submit a job, wait for it, read its per-epoch telemetry,
// and show that the identical resubmission is answered from the
// daemon's content-addressed result cache without simulating again.
//
// Start the daemon first, then run this example:
//
//	go run ./cmd/hydroserved &
//	go run ./examples/serve
//
// Point it elsewhere with -url or the HYDROSERVED_URL environment
// variable.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/hydrogen-sim/hydrogen/client"
)

func main() {
	def := os.Getenv("HYDROSERVED_URL")
	if def == "" {
		def = "http://127.0.0.1:8077"
	}
	url := flag.String("url", def, "hydroserved base URL")
	design := flag.String("design", "Hydrogen", "design to simulate")
	comboID := flag.String("combo", "C1", "Table II combo")
	flag.Parse()

	c := client.New(*url)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	req := client.JobRequest{Design: *design, Combo: client.ComboSpec{ID: *comboID}}
	st, err := c.Submit(ctx, req)
	if err != nil {
		log.Fatalf("submit (is hydroserved running at %s?): %v", *url, err)
	}
	fmt.Printf("job %s: %s\n", st.ID[:12], st.State)

	// Poll until the job finishes, then read its telemetry snapshot.
	if st, err = c.Wait(ctx, st.ID); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job %s: %s after %d epochs\n", st.ID[:12], st.State, st.Epochs)
	ts, err := c.Telemetry(ctx, st.ID)
	if err != nil {
		log.Fatal(err)
	}
	if n := len(ts.Points); n > 0 {
		p := ts.Points[n-1]
		fmt.Printf("telemetry: %d points; final operating point cap=%d bw=%d tok=%d\n",
			n, p.CapWays, p.BwGroups, p.TokIdx)
	}

	res, final, err := c.Run(ctx, req) // already finished: served instantly
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s on %s: CPU IPC %.3f, GPU IPC %.3f, weighted %.3f\n",
		*design, *comboID, res.CPUIPC, res.GPUIPC, res.WeightedIPC(12, 1))
	fmt.Printf("resubmission cached=%v (content-addressed: job ID is the cache key)\n", final.Cached)
}
