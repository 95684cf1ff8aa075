package obs

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// HeaderRequestID is the request-ID header the middleware reads and
// echoes, and the client propagates. It is spelled in Go's canonical
// form, so Header.Get and Header.Set use it as is instead of
// canonicalizing it into a fresh string on every call; net/http sends
// the canonical form on the wire either way.
const HeaderRequestID = "X-Request-Id"

// statusWriter records the status code and body bytes a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Middleware instruments an http.Handler: every request gets a request
// ID (the caller's X-Request-Id, or a fresh one) set on the response
// header, which is the ID's one carrier — a handler that forwards the
// request reads it back from there; the wall time of every request is
// observed into Latency; and when Logger is set, one structured access
// record per request is emitted (request ID, method, path, status,
// bytes, duration). Only the access record needs the status and byte
// count, so only then is the writer wrapped to record them.
type Middleware struct {
	Next    http.Handler
	Latency *Histogram   // optional request-duration histogram (seconds)
	Logger  *slog.Logger // access log; nil disables it
}

// ServeHTTP implements http.Handler.
func (m *Middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	reqID := r.Header.Get(HeaderRequestID)
	if reqID == "" {
		reqID = NewRequestID()
	}
	w.Header().Set(HeaderRequestID, reqID)

	var sw *statusWriter
	if m.Logger != nil {
		sw = &statusWriter{ResponseWriter: w}
		w = sw
	}
	m.Next.ServeHTTP(w, r)

	elapsed := time.Since(start)
	if m.Latency != nil {
		m.Latency.Observe(elapsed.Seconds())
	}
	if sw == nil {
		return
	}
	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	m.Logger.Info("http request",
		"request_id", reqID,
		"method", r.Method,
		"path", r.URL.Path,
		"status", status,
		"bytes", sw.bytes,
		"duration", elapsed,
		"remote", r.RemoteAddr,
	)
}

// RuntimeStats is the /debug/runtimez payload: the process-health
// numbers an operator wants next to a pprof profile.
type RuntimeStats struct {
	Goroutines     int     `json:"goroutines"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64  `json:"heap_sys_bytes"`
	HeapObjects    uint64  `json:"heap_objects"`
	StackSysBytes  uint64  `json:"stack_sys_bytes"`
	NumGC          uint32  `json:"num_gc"`
	LastGCPauseNs  uint64  `json:"last_gc_pause_ns"`
	TotalGCPauseNs uint64  `json:"total_gc_pause_ns"`
	GCCPUFraction  float64 `json:"gc_cpu_fraction"`
	NumCPU         int     `json:"num_cpu"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
}

// ReadRuntimeStats samples the Go runtime.
func ReadRuntimeStats() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeStats{
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		HeapSysBytes:   ms.HeapSys,
		HeapObjects:    ms.HeapObjects,
		StackSysBytes:  ms.StackSys,
		NumGC:          ms.NumGC,
		LastGCPauseNs:  ms.PauseNs[(ms.NumGC+255)%256],
		TotalGCPauseNs: ms.PauseTotalNs,
		GCCPUFraction:  ms.GCCPUFraction,
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
	}
}

// DebugMux returns the opt-in debug listener's handler: the standard
// net/http/pprof endpoints plus /debug/runtimez (JSON runtime metrics:
// heap, GC pauses, goroutines). Serve it on a separate, non-public
// address (hydroserved's -debug-addr) — profiles expose internals and
// profiling costs CPU, so it has no place on the serving port.
func DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/runtimez", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(ReadRuntimeStats())
	})
	return mux
}
