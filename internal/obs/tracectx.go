package obs

import (
	"crypto/rand"
	"encoding/hex"
	"strings"
)

// HeaderTrace, TraceContext, NewTraceContext and TraceContext.Header
// are kept only because the benchmark module (bench/serve.go) still
// compiles against them: it times a POST hit carrying this header. The
// daemon ignores the header — no code in this module reads it — and
// X-Request-ID is the one identity a request keeps across hops. They go
// when that benchmark leg does.
const HeaderTrace = "X-Hydro-Trace"

// TraceContext is the value the benchmark sends in HeaderTrace.
type TraceContext struct {
	TraceID string // 32 hex chars
	SpanID  string // 16 hex chars
	Sampled bool
}

// Header renders the context as <trace-id>-<span-id>-<flags>, flags
// "01" when sampled and "00" when not.
func (tc TraceContext) Header() string {
	flags := "00"
	if tc.Sampled {
		flags = "01"
	}
	return tc.TraceID + "-" + tc.SpanID + "-" + flags
}

// NewTraceContext mints a context with a fresh random trace ID and span
// ID and the given sampled flag.
func NewTraceContext(sampled bool) TraceContext {
	return TraceContext{TraceID: randHex(16), SpanID: randHex(8), Sampled: sampled}
}

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand failing means the process is in deep trouble; a
		// constant ID beats panicking over a header nobody reads.
		return strings.Repeat("0", 2*n)
	}
	return hex.EncodeToString(b)
}
