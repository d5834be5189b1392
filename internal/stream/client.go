package stream

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"
)

// ClientSession is a camera's side of one live ingest stream: frames
// go up the chunked request body (Handler documents the framing),
// outcomes come back on the response stream as they resolve.
type ClientSession struct {
	camera string

	pw     *io.PipeWriter
	sendMu sync.Mutex
	// buf holds one frame's header and image, reused under sendMu:
	// pw.Write returns only once the transport has taken every byte.
	buf bytes.Buffer
	enc *json.Encoder

	outcomes chan Outcome
	done     chan struct{}
	summary  Summary
	readErr  error
	resp     *http.Response
}

// DialSession opens a streaming ingest session for camera against a
// harvest-serve (or harvest-router) base URL. model, tenant and budget
// zero values defer to the server's configuration. The returned session
// is live once DialSession returns: the server has accepted the camera
// (or this call failed with its HTTP status, e.g. 409 for a duplicate
// camera ID).
func DialSession(ctx context.Context, hc *http.Client, baseURL, camera, model, tenant string, budget time.Duration) (*ClientSession, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	q := url.Values{}
	if model != "" {
		q.Set("model", model)
	}
	if tenant != "" {
		q.Set("tenant", tenant)
	}
	if budget > 0 {
		q.Set("budget_ms", fmt.Sprintf("%g", float64(budget)/float64(time.Millisecond)))
	}
	u := baseURL + "/v2/streams/" + url.PathEscape(camera)
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, pr)
	if err != nil {
		pw.Close()
		return nil, err
	}
	req.Header.Set("Content-Type", FramesContentType)
	resp, err := hc.Do(req)
	if err != nil {
		pw.Close()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		pw.Close()
		return nil, &SessionError{Status: resp.StatusCode, Body: string(body)}
	}
	cs := &ClientSession{
		camera:   camera,
		pw:       pw,
		outcomes: make(chan Outcome, 256),
		done:     make(chan struct{}),
		resp:     resp,
	}
	cs.enc = json.NewEncoder(&cs.buf)
	go cs.readLoop()
	return cs, nil
}

// SessionError is a non-200 response to a session open.
type SessionError struct {
	Status int
	Body   string
}

func (e *SessionError) Error() string {
	return fmt.Sprintf("stream: session rejected: HTTP %d: %s", e.Status, e.Body)
}

// Send ships one frame up the stream as one write: its header line,
// then the raw image. Safe for concurrent use.
func (cs *ClientSession) Send(f Frame) error {
	cs.sendMu.Lock()
	defer cs.sendMu.Unlock()
	cs.buf.Reset()
	if err := cs.enc.Encode(frameHeader{f.Seq, f.Format, int64(len(f.Image))}); err != nil {
		return err
	}
	cs.buf.Write(f.Image)
	_, err := cs.pw.Write(cs.buf.Bytes())
	return err
}

// Outcomes streams per-frame results in completion order. The channel
// closes after the server's final summary (or a read error).
func (cs *ClientSession) Outcomes() <-chan Outcome { return cs.outcomes }

// CloseSend signals end-of-stream; the server drains in-flight frames
// and replies with the session summary.
func (cs *ClientSession) CloseSend() error { return cs.pw.Close() }

// Wait blocks until the server closes the response stream and returns
// the session summary. Call after CloseSend.
func (cs *ClientSession) Wait() (Summary, error) {
	<-cs.done
	return cs.summary, cs.readErr
}

func (cs *ClientSession) readLoop() {
	defer close(cs.done)
	defer close(cs.outcomes)
	defer cs.resp.Body.Close()
	sc := bufio.NewScanner(cs.resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var o struct {
			Outcome
			Summary *Summary `json:"summary"`
		}
		if err := json.Unmarshal(line, &o); err != nil {
			cs.readErr = fmt.Errorf("stream: bad outcome line: %w", err)
			return
		}
		if o.Summary != nil {
			cs.summary = *o.Summary
			continue
		}
		cs.outcomes <- o.Outcome
	}
	if err := sc.Err(); err != nil {
		cs.readErr = err
	}
}
