package obs

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMiddlewareRequestID(t *testing.T) {
	mw := &Middleware{Next: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})}

	// A caller-supplied ID is echoed.
	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	req.Header.Set(HeaderRequestID, "abc123")
	rr := httptest.NewRecorder()
	mw.ServeHTTP(rr, req)
	if got := rr.Header().Get(HeaderRequestID); got != "abc123" {
		t.Fatalf("echoed request ID = %q, want abc123", got)
	}
	if rr.Code != http.StatusTeapot {
		t.Fatalf("status = %d", rr.Code)
	}

	// Without one, the middleware mints a fresh ID: 16 hex digits.
	rr = httptest.NewRecorder()
	mw.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/x", nil))
	minted := rr.Header().Get(HeaderRequestID)
	if len(minted) != 16 || strings.Trim(minted, "0123456789abcdef") != "" {
		t.Fatalf("minted request ID = %q, want 16 hex digits", minted)
	}
}

// nopWriter is a ResponseWriter that allocates nothing of its own, so
// AllocsPerRun counts only the middleware's work.
type nopWriter struct{ h http.Header }

func (w nopWriter) Header() http.Header         { return w.h }
func (w nopWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w nopWriter) WriteHeader(int)             {}

// TestMiddlewareAllocs bounds what the middleware allocates for a
// request that brings its own ID and has no access log: the value slice
// of echoing the ID. The header name is canonical, so neither reading
// nor echoing it allocates a key, and without a Logger the writer is
// not wrapped.
func TestMiddlewareAllocs(t *testing.T) {
	mw := &Middleware{Next: http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})}
	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	req.Header.Set(HeaderRequestID, "abc123")
	w := nopWriter{h: http.Header{}}
	if n := testing.AllocsPerRun(100, func() { mw.ServeHTTP(w, req) }); n > 1 {
		t.Fatalf("middleware allocates %v times per request, want <= 1", n)
	}
}

func TestMiddlewareLatencyAndAccessLog(t *testing.T) {
	reg := NewRegistry()
	lat := reg.Histogram("http_seconds", "Latency.", DurationBuckets)
	var logBuf strings.Builder
	mw := &Middleware{
		Next: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("hello"))
		}),
		Latency: lat,
		Logger:  slog.New(slog.NewJSONHandler(&logBuf, nil)),
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs", nil)
	rr := httptest.NewRecorder()
	mw.ServeHTTP(rr, req)

	if got := lat.Count(); got != 1 {
		t.Fatalf("latency observations = %d, want 1", got)
	}
	var line map[string]any
	if err := json.Unmarshal([]byte(logBuf.String()), &line); err != nil {
		t.Fatalf("access log is not one JSON line: %v\n%s", err, logBuf.String())
	}
	if line["method"] != "GET" || line["path"] != "/v1/jobs" ||
		line["status"] != float64(http.StatusOK) || line["bytes"] != float64(5) {
		t.Fatalf("access log line = %v", line)
	}
	if line["request_id"] != rr.Header().Get(HeaderRequestID) || line["duration"] == nil {
		t.Fatalf("access log missing correlation fields: %v", line)
	}

	// Without a Logger the request is still timed, and the handler
	// writes to the caller's writer as it is.
	mw.Logger = nil
	logged := logBuf.Len()
	rr = httptest.NewRecorder()
	mw.Next = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if w != http.ResponseWriter(rr) {
			t.Errorf("handler got %T, want the caller's writer", w)
		}
		w.Write([]byte("hello"))
	})
	mw.ServeHTTP(rr, req)
	if got := lat.Count(); got != 2 {
		t.Fatalf("latency observations without a Logger = %d, want 2", got)
	}
	if rr.Body.String() != "hello" || logBuf.Len() != logged {
		t.Fatalf("without a Logger: body %q, access log grew to %q", rr.Body.String(), logBuf.String())
	}
}

func TestDebugMuxRuntimez(t *testing.T) {
	ts := httptest.NewServer(DebugMux())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/runtimez")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats RuntimeStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Goroutines <= 0 || stats.HeapAllocBytes == 0 || stats.GOMAXPROCS <= 0 {
		t.Fatalf("implausible runtime stats: %+v", stats)
	}

	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", resp.StatusCode)
	}
}
