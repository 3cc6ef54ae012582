package service

// statusRecorder contract tests: the metrics wrapper must keep
// forwarding the optional ResponseWriter interface the handlers rely
// on (Flush for NDJSON streaming), including when middleware stacks end
// up wrapping the wrapper.

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// Compile-time pin: losing Flush from the wrapper type is a build
// failure, not a runtime surprise in a streaming handler.
var _ http.Flusher = (*statusRecorder)(nil)

// TestStatusRecorderDoubleWrapFlush: a Flush on a recorder wrapping
// another recorder must reach the innermost writer. Middleware stacks
// produce exactly this shape, and a broken hop silently turns live
// NDJSON streams into end-of-request batches.
func TestStatusRecorderDoubleWrapFlush(t *testing.T) {
	base := httptest.NewRecorder()
	inner := &statusRecorder{ResponseWriter: base, code: http.StatusOK}
	outer := &statusRecorder{ResponseWriter: inner, code: http.StatusOK}

	// Through the interface, as net/http handlers see it. The status
	// goes first — a flush commits the headers, exactly like a real
	// connection — and must record on every layer it passes through.
	var w http.ResponseWriter = outer
	w.WriteHeader(http.StatusTeapot)
	if outer.code != http.StatusTeapot || inner.code != http.StatusTeapot {
		t.Errorf("recorded codes outer=%d inner=%d, want both %d", outer.code, inner.code, http.StatusTeapot)
	}
	if base.Code != http.StatusTeapot {
		t.Errorf("underlying writer saw status %d, want %d", base.Code, http.StatusTeapot)
	}

	f, ok := w.(http.Flusher)
	if !ok {
		t.Fatal("statusRecorder lost http.Flusher")
	}
	f.Flush()
	if !base.Flushed {
		t.Error("Flush through a double-wrapped recorder never reached the underlying writer")
	}
}
