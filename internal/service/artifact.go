package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// runStats counts one classify or MRC run's work for job accounting and
// tenant charging (Samples is the MRC profiler's; classify leaves it 0).
type runStats struct {
	Records uint64 `json:"records"`
	Emitted uint64 `json:"emitted"`
	Samples uint64 `json:"samples"`
}

// artifact is the memoized product of a spec-path classify or MRC
// request: its work counts and its complete, pre-rendered NDJSON
// response body. Caching the rendered bytes (rather than re-rendering on
// a hit) makes cold-vs-warm byte identity hold by construction: the
// handler writes the bytes that were rendered, whether this request
// computed them or replayed them from the memo cache or a peer.
//
// Encoded (the memo payload and the peer wire form), an artifact is one
// JSON line of runStats followed by the body verbatim, so decoding is a
// split at the first newline that neither copies nor scans the body.
type artifact struct {
	Stats runStats
	Body  []byte
}

// encodeArtifact renders the stats line and appends body after it.
func encodeArtifact(st runStats, body []byte) ([]byte, error) {
	b, err := appendJSONLine(make([]byte, 0, 64+len(body)), st)
	if err != nil {
		return nil, err
	}
	return append(b, body...), nil
}

// decodeArtifact splits an encoded artifact; Body aliases raw.
func decodeArtifact(raw []byte) (artifact, error) {
	i := bytes.IndexByte(raw, '\n')
	if i < 0 {
		return artifact{}, errors.New("service: artifact has no stats line")
	}
	var a artifact
	if err := json.Unmarshal(raw[:i], &a.Stats); err != nil {
		return artifact{}, fmt.Errorf("service: decoding artifact stats: %w", err)
	}
	a.Body = raw[i+1:]
	return a, nil
}

// appendJSONLine appends v's JSON encoding and a newline to b. Summary,
// MRC point, error and sweep lines go through it: a response has few of
// them, so reflection costs nothing that matters there, unlike the
// per-access lines appendAccessLine renders.
func appendJSONLine(b []byte, v any) ([]byte, error) {
	enc, err := json.Marshal(v)
	if err != nil {
		return b, fmt.Errorf("service: encoding result line: %w", err)
	}
	return append(append(b, enc...), '\n'), nil
}
