package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/hydrogen-sim/hydrogen/internal/serve"
)

// hitWriter is a ResponseWriter that, like net/http's, hands each
// request a fresh header map, and whose body goes nowhere: what a
// request through it allocates beyond that map is the daemon's own.
type hitWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *hitWriter) Header() http.Header { return w.h }

func (w *hitWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *hitWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += len(b)
	return len(b), nil
}

// hitKind is one of the three requests a warmed-up sweep sends for a
// done job.
type hitKind struct {
	name string
	want int                  // status
	req  func() *http.Request // resets and returns the reusable request
}

// hitPath boots a server without a socket, runs one job to done
// through ServeHTTP, and returns the three hit kinds for it: the
// fast-hit POST resubmit (the first resubmit, which memoizes the body
// hash, is sent here), the GET, and the GET revalidating with the
// job's ETag. Each kind reuses one request, so only the handler's
// allocations and the per-request header map are counted.
func hitPath(tb testing.TB) ([]hitKind, func(*http.Request) *hitWriter) {
	tb.Helper()
	srv, err := serve.New(serve.Options{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	cfg := tinyConfig()
	cfg.Cycles = 100_000
	payload, err := json.Marshal(serve.JobRequest{Config: &cfg, Design: "Baseline", Combo: serve.ComboSpec{ID: "C1"}})
	if err != nil {
		tb.Fatal(err)
	}
	w := &hitWriter{}
	do := func(r *http.Request) *hitWriter {
		*w = hitWriter{h: http.Header{}}
		srv.ServeHTTP(w, r)
		return w
	}
	var st serve.JobStatus
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(payload)))
	if err := json.Unmarshal(rec.Body.Bytes(), &st); rec.Code != http.StatusAccepted || err != nil {
		tb.Fatalf("submit: %d %v", rec.Code, err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for st.State != serve.StateDone {
		if time.Now().After(deadline) {
			tb.Fatalf("job %s never finished (state %s)", st.ID, st.State)
		}
		time.Sleep(5 * time.Millisecond)
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID, nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			tb.Fatal(err)
		}
	}

	body := bytes.NewReader(payload)
	post := httptest.NewRequest(http.MethodPost, "/v1/jobs", nil)
	post.Body = io.NopCloser(body)
	get := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID, nil)
	cond := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID, nil)
	cond.Header.Set("If-None-Match", `"`+st.ID+`"`)
	kinds := []hitKind{
		{"post", http.StatusOK, func() *http.Request { body.Reset(payload); return post }},
		{"get", http.StatusOK, func() *http.Request { return get }},
		{"304", http.StatusNotModified, func() *http.Request { return cond }},
	}
	if w := do(kinds[0].req()); w.code != http.StatusOK {
		tb.Fatalf("first resubmit: %d", w.code)
	}
	return kinds, do
}

// hitAllocCeilings are the per-kind allocation counts of one request
// through Server.ServeHTTP. All five are net/http's and the
// middleware's: the header map and its first entry's storage, the
// minted request ID and its echoed value slice, and the body's
// MaxBytesReader (POST) or the mux's wildcard match (GET). The
// daemon's own answer allocates nothing.
var hitAllocCeilings = map[string]float64{"post": 5, "get": 5, "304": 5}

// TestHitPathAllocs holds each hit kind's allocations per request at
// the counts above.
func TestHitPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a share of what it is given")
	}
	kinds, do := hitPath(t)
	for _, k := range kinds {
		if w := do(k.req()); w.code != k.want || (k.want == http.StatusOK) != (w.n > 0) {
			t.Fatalf("%s: status %d with %d body bytes, want %d", k.name, w.code, w.n, k.want)
		}
		n := testing.AllocsPerRun(200, func() { do(k.req()) })
		if max := hitAllocCeilings[k.name]; n > max {
			t.Errorf("%s: %v allocations per request, want <= %v", k.name, n, max)
		}
	}
}

// BenchmarkHitPath times each hit kind through ServeHTTP, with no
// socket; run with -benchmem for its allocations.
func BenchmarkHitPath(b *testing.B) {
	kinds, do := hitPath(b)
	for _, k := range kinds {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if w := do(k.req()); w.code != k.want {
					b.Fatalf("status %d, want %d", w.code, k.want)
				}
			}
		})
	}
}

// TestSubmitBufferPoolSafety races fast-hit POSTs of known jobs against
// cold POSTs of new ones. The submit body's buffer is pooled: were it
// handed back while a cold submission still decodes from it, a hit
// could overwrite the bytes underneath, and the cold job would get
// another request's ID or a 400. Under -race the reuse itself is
// reported.
func TestSubmitBufferPoolSafety(t *testing.T) {
	const (
		known   = 2
		cold    = 24
		hitters = 4
		rounds  = 150
	)
	srv, err := serve.New(serve.Options{Workers: 1, QueueDepth: cold + known})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		return rec
	}
	request := func(seed int64, cycles uint64) (serve.JobRequest, []byte) {
		cfg := tinyConfig()
		cfg.Cycles, cfg.Seed = cycles, seed
		req := serve.JobRequest{Config: &cfg, Design: "Baseline", Combo: serve.ComboSpec{ID: "C1"}}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return req, body
	}

	// The known jobs run to done; their first resubmit's body is the
	// reference every later hit must match, and memoizes the body hash.
	hitBodies, refs := make([][]byte, known), make([][]byte, known)
	for i := range hitBodies {
		var req serve.JobRequest
		req, hitBodies[i] = request(int64(1000+i), 50_000)
		id := jobKey(t, req)
		if rec := post(hitBodies[i]); rec.Code != http.StatusAccepted {
			t.Fatalf("known job %d: %d", i, rec.Code)
		}
		deadline := time.Now().Add(120 * time.Second)
		for {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
			if bytes.Contains(rec.Body.Bytes(), []byte(`"state":"done"`)) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("known job %d never finished", i)
			}
			time.Sleep(5 * time.Millisecond)
		}
		rec := post(hitBodies[i])
		if rec.Code != http.StatusOK {
			t.Fatalf("known job %d resubmit: %d", i, rec.Code)
		}
		refs[i] = rec.Body.Bytes()
	}

	// Cold jobs are long enough that none finishes during the test, so
	// every one answers 202 with its own ID.
	coldIDs, coldBodies := make([]string, cold), make([][]byte, cold)
	for i := range coldBodies {
		var req serve.JobRequest
		req, coldBodies[i] = request(int64(1+i), 2_000_000_000)
		coldIDs[i] = jobKey(t, req)
	}
	var wg sync.WaitGroup
	errs := make(chan error, cold+hitters)
	for g := 0; g < hitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % known
				rec := post(hitBodies[i])
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), refs[i]) {
					errs <- fmt.Errorf("hit of known job %d: %d, body differs from its reference: %t",
						i, rec.Code, !bytes.Equal(rec.Body.Bytes(), refs[i]))
					return
				}
			}
		}(g)
	}
	for i := range coldBodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := post(coldBodies[i])
			var st serve.JobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusAccepted {
				errs <- fmt.Errorf("cold job %d: %d %s", i, rec.Code, rec.Body.Bytes())
				return
			}
			if st.ID != coldIDs[i] {
				errs <- fmt.Errorf("cold job %d got ID %s, want its own %s", i, st.ID, coldIDs[i])
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
