package obs

import (
	"encoding/binary"
	"encoding/hex"
	"io"
	"log/slog"
	"math/rand/v2"
)

// NewLogger builds a slog.Logger writing to w, as JSON when jsonFormat
// is set and human-readable text otherwise. A nil w yields a discard
// logger.
func NewLogger(w io.Writer, jsonFormat bool, level slog.Level) *slog.Logger {
	if w == nil {
		return Discard()
	}
	opts := &slog.HandlerOptions{Level: level}
	if jsonFormat {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// Discard returns a logger that drops everything — the default for
// components whose operator did not ask for logging.
func Discard() *slog.Logger {
	return slog.New(slog.DiscardHandler)
}

// NewRequestID mints a short unique request ID: 64 random bits as 16
// zero-padded hex digits. An ID only has to be unique, not secret, so
// it comes from math/rand/v2's per-thread generator and costs no
// syscall.
func NewRequestID() string {
	var raw [8]byte
	binary.BigEndian.PutUint64(raw[:], rand.Uint64())
	var id [16]byte
	hex.Encode(id[:], raw[:])
	return string(id[:])
}
