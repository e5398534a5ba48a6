package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// conn is a keep-alive HTTP/1.1 connection with a hand-rolled request
// writer and response reader. net/http's client costs about as much CPU
// per request as the server under test does; on a two-core sandbox that
// would make the generator, not the server, the bottleneck being measured.
// The reader understands exactly what powserver sends: a status line,
// headers, and a Content-Length or chunked body.
type conn struct {
	c   net.Conn
	r   *bufio.Reader
	req []byte // request scratch
	buf []byte // body scratch, reused across responses
}

// response is one parsed reply. challenge and body alias the connection's
// scratch buffers and are valid until the next request on it.
type response struct {
	status    int
	challenge []byte // X-PoW-Challenge header value, nil when absent
	body      []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() }

// deadline bounds every read and write on the connection, so a wedged
// server fails the run instead of hanging it.
func (c *conn) deadline(t time.Time) { _ = c.c.SetDeadline(t) }

// get sends GET path on behalf of client ip, with an optional solution
// token.
func (c *conn) get(path, ip, solution string) (response, error) {
	c.req = appendGet(c.req[:0], path, ip, solution)
	return c.roundTrip(c.req)
}

// appendGet appends the bytes of a GET request to b.
func appendGet(b []byte, path, ip, solution string) []byte {
	b = append(b, "GET "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\n"+trustHeader+": "...)
	b = append(b, ip...)
	if solution != "" {
		b = append(b, "\r\nX-PoW-Solution: "...)
		b = append(b, solution...)
	}
	return append(b, "\r\n\r\n"...)
}

// post sends a JSON body with a bearer credential.
func (c *conn) post(path, bearer string, body []byte) (response, error) {
	b := append(c.req[:0], "POST "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\nAuthorization: Bearer "...)
	b = append(b, bearer...)
	b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	c.req = b
	return c.roundTrip(b)
}

func (c *conn) roundTrip(req []byte) (response, error) {
	if _, err := c.c.Write(req); err != nil {
		return response{}, err
	}
	return c.read()
}

var (
	hdrLength    = []byte("content-length")
	hdrEncoding  = []byte("transfer-encoding")
	hdrChallenge = []byte("x-pow-challenge")
	errMalformed = errors.New("bench: malformed HTTP response")
)

func (c *conn) read() (response, error) {
	var resp response
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return resp, err
	}
	// "HTTP/1.1 428 ..."
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return resp, errMalformed
	}
	if resp.status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return resp, errMalformed
	}
	length, chunked := -1, false
	c.buf = c.buf[:0]
	chStart, chEnd := 0, 0
	for {
		line, err = c.r.ReadSlice('\n')
		if err != nil {
			return resp, err
		}
		if len(line) <= 2 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return resp, errMalformed
		}
		key, val := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(key, hdrLength):
			if length, err = strconv.Atoi(string(val)); err != nil {
				return resp, errMalformed
			}
		case bytes.EqualFold(key, hdrEncoding):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		case bytes.EqualFold(key, hdrChallenge):
			// The header line lives in bufio's buffer; copy it out.
			chStart = len(c.buf)
			c.buf = append(c.buf, val...)
			chEnd = len(c.buf)
		}
	}
	bodyStart := len(c.buf)
	switch {
	case chunked:
		for {
			line, err = c.r.ReadSlice('\n')
			if err != nil {
				return resp, err
			}
			n, err := strconv.ParseUint(string(bytes.TrimSpace(line)), 16, 31)
			if err != nil {
				return resp, errMalformed
			}
			if n == 0 {
				// No trailers are ever sent: the blank line ends the body.
				if _, err := c.r.ReadSlice('\n'); err != nil {
					return resp, err
				}
				break
			}
			if err := c.fill(int(n)); err != nil {
				return resp, err
			}
			if _, err := c.r.Discard(2); err != nil {
				return resp, err
			}
		}
	case length >= 0:
		if err := c.fill(length); err != nil {
			return resp, err
		}
	default:
		return resp, fmt.Errorf("%w: neither Content-Length nor chunked", errMalformed)
	}
	if chEnd > chStart {
		resp.challenge = c.buf[chStart:chEnd]
	}
	resp.body = c.buf[bodyStart:]
	return resp, nil
}

// fill appends the next n body bytes to the scratch buffer.
func (c *conn) fill(n int) error {
	at := len(c.buf)
	if cap(c.buf)-at < n {
		grown := make([]byte, at, 2*(at+n))
		copy(grown, c.buf)
		c.buf = grown
	}
	c.buf = c.buf[:at+n]
	_, err := io.ReadFull(c.r, c.buf[at:])
	return err
}
