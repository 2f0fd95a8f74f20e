package server

import (
	"bytes"
	"net/http"
	"strconv"
	"sync"
)

// Every finished response is built whole in a pooled buffer, then sent
// by writeBody as one Write with Content-Length set. net/http chunks a
// body written in pieces with no length, over several syscalls, and the
// client must decode the chunks; a sized body goes out in one piece. A
// finished body also lets an encode failure become a 500 envelope
// instead of a 200 cut off mid-body.

// ctJSON is the content type of every JSON response.
const ctJSON = "application/json; charset=utf-8"

// maxPooledBody caps the buffers bodyPool keeps. A buffer that grew
// past it (an unlimited /v1/results, a long stream replay) is left to
// the GC, so one large response does not pin its memory for the life
// of the daemon.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// getBody returns an empty buffer from the pool.
func getBody() *bytes.Buffer { return bodyPool.Get().(*bytes.Buffer) }

// putBody returns b to the pool unless it outgrew maxPooledBody. The
// caller must be done with b.Bytes().
func putBody(b *bytes.Buffer) {
	if b.Cap() > maxPooledBody {
		return
	}
	b.Reset()
	bodyPool.Put(b)
}

// writeBody sends a finished body: Content-Type and Content-Length,
// the status, then the body in a single Write.
func writeBody(w http.ResponseWriter, status int, contentType string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}
