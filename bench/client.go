package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"time"
)

// sampleEvery is the body sampling rate: the reply of every op whose index
// is a multiple of it is kept and checked field by field.
const sampleEvery = 64

// client is one closed-loop caller: a single keep-alive connection, one
// request in flight. It reads every reply body to the end.
type client struct {
	hc   *http.Client
	base string
	req  []byte       // request body scratch
	resp bytes.Buffer // reply body scratch, valid until the next call
}

func newClient(base string) *client {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do issues o and returns the HTTP status and the reply body (valid until
// the next call). A transport error returns status 0.
func (c *client) do(o op) (int, []byte, error) {
	method, path, body := o.request(c.req[:0])
	c.req = body[:0]
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.resp.Bytes(), nil
}

// rec is what a client keeps of one completed op.
type rec struct {
	idx    uint64 // op index in the stream
	kind   opKind
	status int           // HTTP status, 0 = transport error
	unrch  int           // batch replies: items answered "unreachable"
	end    time.Duration // completion, as an offset from the run's epoch
	lat    time.Duration
	body   []byte // sampled replies only
}
