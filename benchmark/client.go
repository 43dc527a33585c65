package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"time"
)

// reply is the union of the response bodies the benchmark reads.
type reply struct {
	Answer string `json:"answer"`
	Truth  string `json:"truth"`
	Cached bool   `json:"cached"`
	Stats  *struct {
		Exact bool `json:"exact"`
	} `json:"stats"`
	Tuples [][]string `json:"tuples"`
	Epoch  uint64     `json:"epoch"`
	Facts  int        `json:"facts"`
	Error  string     `json:"error"`
	WAL    *struct {
		ReplayedRecords int `json:"replayed_records"`
	} `json:"wal"`
}

// client is one closed-loop caller on its own single connection: it
// sends the next request only after the previous reply has been read and
// checked.
type client struct {
	hc   *http.Client
	base string

	lat       [nClasses][]float64 // ms, per class, in issue order
	first     []float64           // ms from create sent to first answer read
	createAt  time.Time
	attempted int
	failed    int
	failures  []string // the first few, with request and reply
}

func newClient() *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

const maxFailuresKept = 8

func (c *client) fail(o op, status int, body []byte, why string) {
	c.failed++
	if len(c.failures) < maxFailuresKept {
		c.failures = append(c.failures, fmt.Sprintf("%s: %s %s %.200s -> %d %.300s",
			why, o.method, o.path, o.body, status, body))
	}
}

// do issues one operation, times it, and checks the reply against the
// oracle. Every outcome other than the expected reply counts as failed.
func (c *client) do(o op) (ok bool) {
	if o.apply != nil {
		o.apply()
	}
	c.attempted++
	var rd io.Reader
	if o.body != nil {
		rd = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method, c.base+o.path, rd)
	if err != nil {
		c.fail(o, 0, nil, err.Error())
		return false
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.fail(o, 0, nil, err.Error())
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		c.fail(o, resp.StatusCode, body, err.Error())
		return false
	}
	c.lat[o.class] = append(c.lat[o.class], float64(end.Sub(start))/float64(time.Millisecond))
	switch o.class {
	case clCreate:
		c.createAt = start
	case clFirst:
		c.first = append(c.first, float64(end.Sub(c.createAt))/float64(time.Millisecond))
	}
	if resp.StatusCode != o.want.status {
		c.fail(o, resp.StatusCode, body, fmt.Sprintf("status %d, want %d", resp.StatusCode, o.want.status))
		return false
	}
	var rep reply
	if len(body) > 0 {
		if err := json.Unmarshal(body, &rep); err != nil {
			c.fail(o, resp.StatusCode, body, "reply is not JSON: "+err.Error())
			return false
		}
	}
	if why := o.want.mismatch(&rep); why != "" {
		c.fail(o, resp.StatusCode, body, why)
		return false
	}
	return true
}

// mismatch compares a reply with the oracle; "" means it agrees.
func (w *want) mismatch(rep *reply) string {
	switch {
	case w.answer != "" && rep.Answer != string(w.answer):
		return fmt.Sprintf("answer %q, want %q", rep.Answer, w.answer)
	case w.answer != "" && rep.Stats == nil:
		return "answer without stats: cannot tell exact from inexact"
	case w.answer != "" && rep.Stats.Exact != w.exact:
		return fmt.Sprintf("stats.exact %v, want %v", rep.Stats.Exact, w.exact)
	case w.truth != "" && rep.Truth != string(w.truth):
		return fmt.Sprintf("truth %q, want %q", rep.Truth, w.truth)
	case w.tuples != nil && !slices.EqualFunc(rep.Tuples, w.tuples, slices.Equal[[]string]):
		return fmt.Sprintf("tuples %v, want %v", rep.Tuples, w.tuples)
	case w.hasEp && rep.Epoch != w.epoch:
		return fmt.Sprintf("epoch %d, want %d", rep.Epoch, w.epoch)
	case w.facts > 0 && rep.Facts != w.facts:
		return fmt.Sprintf("facts %d, want %d", rep.Facts, w.facts)
	case w.hasReplayed && (rep.WAL == nil || rep.WAL.ReplayedRecords != w.replayed):
		return fmt.Sprintf("wal block %+v, want %d replayed records", rep.WAL, w.replayed)
	}
	return ""
}
