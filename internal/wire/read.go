package wire

import (
	"io"
	"slices"
	"sync"
)

// MaxPrealloc bounds how far ReadSized allocates ahead of the bytes that
// have arrived, so a lying Content-Length cannot make a server reserve a
// large buffer for a body that never comes.
const MaxPrealloc = 1 << 20

// ReadSized reads r to EOF into buf[:0], first replacing buf with one
// buffer sized from the declared length (Content-Length; negative when
// unknown, capped at MaxPrealloc) when buf is smaller. A body of its
// declared length then fits without growing the buffer: net/http reports
// EOF with the last bytes. Longer or undeclared bodies grow it as
// io.ReadAll does.
func ReadSized(buf []byte, r io.Reader, declared int64) ([]byte, error) {
	size := int64(512)
	if declared > 0 {
		size = min(declared, MaxPrealloc)
	}
	if int64(cap(buf)) < size {
		buf = make([]byte, 0, size)
	}
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// MaxPooled caps the buffers PutBuffer keeps, so one huge body is not
// pinned for good.
const MaxPooled = 64 << 10

// bufs is the serving tier's one pool of byte buffers: request and
// response bodies read, built and copied on the backends and the router.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

// GetBuffer returns a pooled buffer, of any length and capacity. Store the
// slice last used in it (*bp = buf) before handing it back with PutBuffer,
// so a buffer that grew is kept grown.
func GetBuffer() *[]byte { return bufs.Get().(*[]byte) }

// PutBuffer returns a buffer to the pool, unless it grew past MaxPooled.
// Nothing may read or write its bytes afterwards: every slice that aliases
// them must be dead.
func PutBuffer(bp *[]byte) {
	if cap(*bp) <= MaxPooled {
		*bp = (*bp)[:0]
		bufs.Put(bp)
	}
}
