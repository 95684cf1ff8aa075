package client_test

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"github.com/hydrogen-sim/hydrogen/client"
	"github.com/hydrogen-sim/hydrogen/internal/serve"
	"github.com/hydrogen-sim/hydrogen/internal/system"
)

// Drive a simulation service through the client: submit a job, wait for
// it, read its per-epoch telemetry, then resubmit the identical request
// and get the answer from the content-addressed result cache without
// simulating again. Against a running daemon (go run ./cmd/hydroserved),
// pass its URL to client.New instead of the in-process test server.
func ExampleClient_Run() {
	srv, err := serve.New(serve.Options{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	c := client.New(ts.URL)
	ctx := context.Background()
	cfg := system.Quick()
	cfg.Cycles = 500_000
	cfg.EpochLen = 100_000
	req := client.JobRequest{Config: &cfg, Design: "Hydrogen", Combo: client.ComboSpec{ID: "C1"}}

	st, err := c.Submit(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job %s after %d epochs\n", st.State, st.Epochs)

	tel, err := c.Telemetry(ctx, st.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("telemetry: %d points\n", len(tel.Points))

	_, final, err := c.Run(ctx, req) // already done: served from the cache
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resubmission cached=%v\n", final.Cached)
	// Output:
	// job done after 4 epochs
	// telemetry: 4 points
	// resubmission cached=true
}
