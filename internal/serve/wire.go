package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"strconv"
	"sync"
)

// The infer wire, after the KServe/Triton v2 binary-data extension. A
// body is one JSON object (InferRequestJSON or InferResponseJSON less
// its payload) followed by the payload as raw parts: image bytes as
// they are, tensors as little-endian float32. The InferHeaderLength
// header says where the JSON ends, and the JSON lists each part's byte
// length. A body without that header is all JSON, the "header is the
// whole body" case of the one decoder: plain JSON (images_b64 included)
// has no path of its own. DESIGN.md "Wire" has the 4xx table.
const InferHeaderLength = "Inference-Header-Content-Length"

// requestHeader and responseHeader are the JSON objects on the wire:
// the public types plus the part sizes, which stay off the Go API.
type requestHeader struct {
	InferRequestJSON
	ImageSizes []int64 `json:"image_sizes,omitempty"`
	InputSizes []int64 `json:"input_sizes,omitempty"`
}

type responseHeader struct {
	InferResponseJSON
	OutputSizes []int64 `json:"output_sizes,omitempty"`
}

// wireLimits bounds what one body may claim; a zero field is no bound.
type wireLimits struct {
	body  int64 // JSON header plus parts
	parts int   // number of parts (the model's MaxBatch)
	image int64 // one encoded image (the model's MaxImageBytes)
}

// badBody is a body the decoder refuses, with the status that says why.
func badBody(status int, format string, a ...any) error {
	return statusError(status, fmt.Sprintf(format, a...))
}

// tensorParts encodes tensors as little-endian float32 parts, back to
// back in one buffer from pool (nil for no bytes), which the caller
// releases once nothing reads the parts; partTensors is its inverse
// (part lengths are multiples of 4 by then).
func tensorParts(tensors [][]float32, pool *bufPool) ([][]byte, *wireBuf) {
	n := 0
	for _, t := range tensors {
		n += 4 * len(t)
	}
	if n == 0 {
		return make([][]byte, len(tensors)), nil
	}
	buf := pool.get(max(0, bits.Len(uint(n-1))-minBufShift))
	b := buf.b[:n]
	parts := make([][]byte, len(tensors))
	for i, t := range tensors {
		p := b[: 4*len(t) : 4*len(t)]
		for j, v := range t {
			binary.LittleEndian.PutUint32(p[4*j:], math.Float32bits(v))
		}
		parts[i], b = p, b[len(p):]
	}
	return parts, buf
}

func partTensors(parts [][]byte) [][]float32 {
	tensors := make([][]float32, len(parts))
	for i, p := range parts {
		tensors[i] = make([]float32, len(p)/4)
		for j := range tensors[i] {
			tensors[i][j] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*j:]))
		}
	}
	return tensors
}

// frame is an encoded body: the marshalled JSON header and the raw
// parts after it, which are the caller's slices, never copies. The
// transport may still read a request body after Do has returned (a
// failed or early-answered attempt) while the parts alias a pooled
// buffer about to be reused: reads hold the lock, and revoke ends them.
type frame struct {
	hdr     []byte
	parts   [][]byte
	buf     *wireBuf // the parts' pooled buffer, released on revoke
	length  int64
	mu      sync.Mutex
	revoked bool
}

// newFrame marshals meta as the header of parts, after listing their
// byte lengths in *sizes, a field of meta.
func newFrame(meta any, sizes *[]int64, parts [][]byte) (*frame, error) {
	f := &frame{parts: parts}
	for _, p := range parts {
		*sizes = append(*sizes, int64(len(p)))
		f.length += int64(len(p))
	}
	var err error
	f.hdr, err = json.Marshal(meta)
	f.length += int64(len(f.hdr))
	return f, err
}

// encodeInfer frames a request: its images, or else its tensors, leave
// the JSON and follow it as parts. A payload-free request has none, and
// its frame is the plain JSON body.
func encodeInfer(body *InferRequestJSON) (*frame, error) {
	h := requestHeader{InferRequestJSON: *body}
	if len(h.Images) > 0 {
		h.Images = nil
		return newFrame(&h, &h.ImageSizes, body.Images)
	}
	h.Inputs = nil
	parts, buf := tensorParts(body.Inputs, &wirePool)
	f, err := newFrame(&h, &h.InputSizes, parts)
	f.buf = buf
	return f, err
}

// writeInfer answers infer request r: framed iff r was and there are
// outputs to carry, else the plain JSON object.
func writeInfer(w http.ResponseWriter, r *http.Request, out *InferResponseJSON) {
	if len(out.Outputs) > 0 && r.Header.Get(InferHeaderLength) != "" {
		h := responseHeader{InferResponseJSON: *out}
		h.Outputs = nil
		parts, buf := tensorParts(out.Outputs, &wirePool)
		if buf != nil {
			defer buf.release()
		}
		if f, err := newFrame(&h, &h.OutputSizes, parts); err == nil {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.FormatInt(f.length, 10))
			w.Header().Set(InferHeaderLength, strconv.Itoa(len(f.hdr)))
			// A failed write means the caller has gone: no one to tell.
			_, _ = w.Write(f.hdr)
			for _, p := range f.parts {
				_, _ = w.Write(p)
			}
			return
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (f *frame) revoke() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.revoked && f.buf != nil {
		f.buf.release()
	}
	f.revoked = true
}

// reader starts one pass over the frame: the request's Body, or a
// GetBody replay after a stale keep-alive connection.
func (f *frame) reader() io.ReadCloser {
	segs := []io.Reader{bytes.NewReader(f.hdr)}
	for _, p := range f.parts {
		segs = append(segs, bytes.NewReader(p))
	}
	return &frameReader{f, io.MultiReader(segs...)}
}

type frameReader struct {
	f *frame
	r io.Reader
}

func (r *frameReader) Close() error { return nil }

func (r *frameReader) Read(p []byte) (int, error) {
	r.f.mu.Lock()
	defer r.f.mu.Unlock()
	if r.f.revoked {
		return 0, errors.New("serve: request body read after its attempt ended")
	}
	return r.r.Read(p)
}

// Body buffers come in power-of-two size classes, from 4 KiB up.
const minBufShift = 12

// bufPool recycles body buffers by size class. The zero value is ready
// to use; a class fills as its buffers are released.
type bufPool [64 - minBufShift]sync.Pool

var wirePool bufPool // of every infer handler and client in the process

// wireBuf is the buffer one body is read into. Its owner releases it
// once, when nothing refers to the bytes any more.
type wireBuf struct {
	b     []byte // the bytes received so far
	class int
	pool  *bufPool
}

func (p *bufPool) get(class int) *wireBuf {
	if w, _ := p[class].Get().(*wireBuf); w != nil {
		return w
	}
	return &wireBuf{b: make([]byte, 0, 1<<(minBufShift+class)), class: class, pool: p}
}

func (w *wireBuf) release() {
	w.b = w.b[:0]
	w.pool[w.class].Put(w)
}

// fill appends exactly n more bytes from r (n < 0: all of r) and
// returns the buffer that holds them. A full buffer is traded for one
// of the next class, so a body never commits more than twice what has
// arrived plus the smallest class: a declared length is only a claim.
func (w *wireBuf) fill(r io.Reader, n int64) (*wireBuf, error) {
	for n != 0 {
		if len(w.b) == cap(w.b) {
			g := w.pool.get(w.class + 1)
			g.b = append(g.b, w.b...)
			w.release()
			w = g
		}
		room := w.b[len(w.b):cap(w.b)]
		if n > 0 && int64(len(room)) > n {
			room = room[:n]
		}
		m, err := r.Read(room)
		w.b, n = w.b[:len(w.b)+m], n-int64(m) // a negative n stays negative
		switch {
		case err == io.EOF && n > 0:
			return w, io.ErrUnexpectedEOF
		case err == io.EOF:
			return w, nil
		case err != nil:
			return w, err
		}
	}
	return w, nil
}

// decodeInfer reads one body from r into a buffer from pool, and its
// JSON into meta, a *requestHeader or a *responseHeader. The JSON is as
// long as InferHeaderLength in hdr says, the whole body without that
// header. The parts it declares follow: images become sub-slices of the
// buffer, tensors are decoded into memory of their own. Whatever the
// declared lengths can get wrong is refused on the JSON alone, before
// any payload is read. contentLen is the body's declared length, -1
// when unknown. The caller releases the buffer, after an error too.
func decodeInfer(r io.Reader, hdr http.Header, contentLen int64, lim wireLimits, pool *bufPool, meta any) (*wireBuf, error) {
	buf := pool.get(0)
	headerLen, declared := contentLen, hdr.Get(InferHeaderLength)
	if declared != "" {
		var err error
		if headerLen, err = strconv.ParseInt(declared, 10, 64); err != nil || headerLen < 0 || headerLen > contentLen {
			return buf, badBody(http.StatusBadRequest, "%s %q is no length within the body (Content-Length %d)", InferHeaderLength, declared, contentLen)
		}
	}
	switch {
	case lim.body > 0 && contentLen > lim.body:
		return buf, badBody(http.StatusRequestEntityTooLarge, "body of %d bytes exceeds %d bytes", contentLen, lim.body)
	case lim.body > 0 && contentLen < 0:
		r = io.LimitReader(r, lim.body+1) // all JSON and of unknown length: cut off here
	}
	buf, err := buf.fill(r, headerLen)
	if err != nil {
		return buf, err
	}
	off, total := len(buf.b), int64(len(buf.b))
	if lim.body > 0 && total > lim.body {
		return buf, badBody(http.StatusRequestEntityTooLarge, "body exceeds %d bytes", lim.body)
	}
	if err := json.Unmarshal(buf.b, meta); err != nil {
		return buf, badBody(http.StatusBadRequest, "bad JSON: %v", err)
	}
	// The JSON declares each part's byte length; a kind has a cap and a unit.
	var sizes []int64
	perPart, unit := int64(0), int64(4)
	switch h := meta.(type) {
	case *responseHeader:
		sizes = h.OutputSizes
	case *requestHeader:
		images, inputs := len(h.ImageSizes) > 0, len(h.InputSizes) > 0
		b64, inJSON := len(h.Images) > 0, len(h.Inputs) > 0
		if images && inputs || b64 && inJSON || (images || inputs) && (b64 || inJSON) {
			return buf, badBody(http.StatusBadRequest, "%v: a body carries one of images_b64, inputs, image_sizes and input_sizes", ErrMixedInputs)
		}
		if sizes = h.InputSizes; images {
			sizes, perPart, unit = h.ImageSizes, lim.image, 1
		}
	}
	for i, s := range sizes {
		switch {
		case s < 0 || s%unit != 0 || s > math.MaxInt64-total:
			return buf, badBody(http.StatusBadRequest, "part %d: size %d is negative, overflows or is no multiple of %d", i, s, unit)
		case perPart > 0 && s > perPart:
			return buf, badBody(http.StatusRequestEntityTooLarge, "%v: image %d is %d bytes, limit %d", ErrImageTooLarge, i, s, perPart)
		}
		total += s
	}
	switch {
	case lim.parts > 0 && len(sizes) > lim.parts:
		return buf, badBody(http.StatusBadRequest, "%v: %d parts > %d", ErrTooManyItems, len(sizes), lim.parts)
	case lim.body > 0 && total > lim.body:
		return buf, badBody(http.StatusRequestEntityTooLarge, "body of %d bytes exceeds %d bytes", total, lim.body)
	case contentLen >= 0 && total != contentLen:
		return buf, badBody(http.StatusBadRequest, "JSON and part sizes add up to %d bytes, the body has %d", total, contentLen)
	}
	if buf, err = buf.fill(r, total-int64(off)); err != nil {
		return buf, err
	}
	parts := make([][]byte, len(sizes))
	for i, s := range sizes {
		parts[i] = buf.b[off : off+int(s) : off+int(s)]
		off += int(s)
	}
	switch h := meta.(type) {
	case *responseHeader:
		h.Outputs = append(h.Outputs, partTensors(parts)...)
	case *requestHeader:
		if unit == 1 {
			h.Images = parts
		} else {
			h.Inputs = append(h.Inputs, partTensors(parts)...)
		}
	}
	return buf, nil
}
