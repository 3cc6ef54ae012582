package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync/atomic"
	"time"
)

// ParseLevel maps a -log-level flag value to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
	}
}

// NewLogger builds a structured logger writing to w. format is "text"
// (the default) or "json"; level follows ParseLevel.
func NewLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	lv, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
	}
}

// traceIDKey and acceptKey carry request-scoped values through
// contexts.
type traceIDKey struct{}
type acceptKey struct{}

// WithTraceID returns a context carrying the request's trace ID.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceID returns the context's trace ID, or "" when none was attached.
func TraceID(ctx context.Context) string {
	if id, ok := ctx.Value(traceIDKey{}).(string); ok {
		return id
	}
	return ""
}

// WithAcceptTime returns a context carrying the instant the request was
// accepted, so spans recorded deeper in the stack can start at the true
// accept time rather than wherever the context happened to surface.
func WithAcceptTime(ctx context.Context, t time.Time) context.Context {
	return context.WithValue(ctx, acceptKey{}, t)
}

// AcceptTime returns the context's accept instant, or the zero time
// when none was attached (span starts then default to now).
func AcceptTime(ctx context.Context) time.Time {
	if t, ok := ctx.Value(acceptKey{}).(time.Time); ok {
		return t
	}
	return time.Time{}
}

// idCounter disambiguates fallback IDs when crypto/rand fails.
var idCounter atomic.Int64

// NewTraceID returns a 16-byte random identifier in hex (the W3C
// trace-id width). It never fails: if the system's entropy source is
// unavailable it falls back to a timestamp + counter, which is unique
// within the process.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("%016x%016x", time.Now().UnixNano(), idCounter.Add(1))
	}
	return hex.EncodeToString(b[:])
}
