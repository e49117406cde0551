package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// uploadPattern is each trace-upload client's repeating block: classify
// an image (u), then profile the same image's MRC (m).
const uploadPattern = "um"

// uploadSession is a booted mctd and the trace images POSTed to it.
type uploadSession struct {
	env    *runEnv
	d      *daemon
	hc     *http.Client
	images [][]byte
	next   []int // per client: requests sent

	mu   sync.Mutex
	seen map[string]uint64 // "image/kind" -> hash of the first response body
	refs map[int]uint64    // image -> accesses the first response counted
}

// startUpload writes one v2 trace image per spec workload with tracegen,
// from seeds derived from the run's seed, then boots mctd.
func startUpload(ctx context.Context, env *runEnv) (session, error) {
	dir, err := env.subdir("images-")
	if err != nil {
		return nil, err
	}
	var images [][]byte
	for i, b := range specBenches {
		path := filepath.Join(dir, b+".mctr")
		seed := derive(env.opt.seed, "image", uint64(i)) | 1
		cmd := exec.CommandContext(ctx, filepath.Join(env.opt.bin, "tracegen"),
			"-bench", b, "-n", strconv.FormatUint(env.sc.imageInstrs, 10),
			"-seed", strconv.FormatUint(seed, 10), "-format", "v2", "-o", path)
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("tracegen %s: %v: %s", b, err, out)
		}
		img, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		images = append(images, img)
	}
	d, _, err := bootFresh(ctx, env)
	if err != nil {
		return nil, err
	}
	return &uploadSession{
		env: env, d: d, hc: newHTTPClient(clientCount()), images: images,
		next: make([]int, clientCount()), seen: map[string]uint64{}, refs: map[int]uint64{},
	}, nil
}

func (s *uploadSession) setup(ctx context.Context, n int) ([]float64, error) {
	return bootSamples(ctx, s.env, n)
}

func (s *uploadSession) traffic(ctx context.Context, secs float64, tr *tracer) (*phase, error) {
	return closedLoop(ctx, len(s.next), secs, func(i int, deadline time.Time, p *phase) {
		s.runClient(ctx, i, deadline, p, tr)
	})
}

// runClient uploads whole blocks of uploadPattern until the deadline has
// passed, cycling through the images in a fixed interleave. A block
// whose requests all succeed adds the sum of their latencies to the
// "block" samples.
func (s *uploadSession) runClient(ctx context.Context, id int, deadline time.Time, p *phase, tr *tracer) {
	chk := s.env.chk
	var buf bytes.Buffer
	for block := 0; block == 0 || time.Now().Before(deadline); block++ {
		img := (id + s.next[id]/len(uploadPattern)) % len(s.images)
		blockMS, whole := 0.0, true
		for _, kind := range []byte(uploadPattern) {
			if ctx.Err() != nil {
				return
			}
			req := &request{kind: "upload", path: "/v1/classify", ctype: "application/octet-stream", body: s.images[img]}
			if kind == 'm' {
				req.kind, req.path = "upload-mrc", "/v1/mrc"
			}
			s.next[id]++
			p.attempted++
			status, lat, err := send(ctx, s.hc, s.d.base, req, &buf, tr, fmt.Sprintf("c%d-%d", id, s.next[id]), 0)
			body := buf.Bytes()
			if !chk.expect("requests succeed", err == nil && status == http.StatusOK, "%s", describeFailure(req, status, err, body)) {
				p.failed++
				whole = false
				continue
			}
			if hasErrorRecord(body) {
				p.failed++
				whole = false
				chk.expect("upload streams end without an error record", false, "image %d %s: %.200q", img, req.kind, lastLine(body))
				continue
			}
			var refs uint64
			if kind == 'u' {
				sum, _ := checkClassify(chk, body, countLines(body), 0)
				refs = sum.Accesses
			} else {
				refs, _ = checkMRC(chk, body, len(mrcLadderKB), 0)
			}
			s.compare(img, req.kind, body, refs)
			p.bytes += int64(len(req.body))
			p.lat[req.kind] = append(p.lat[req.kind], float64(lat)/1e6)
			blockMS += float64(lat) / 1e6
		}
		if whole {
			p.lat["block"] = append(p.lat["block"], blockMS)
		}
	}
}

// compare checks that every response to the same image and endpoint is
// byte-identical, and that classify and MRC count the same accesses.
func (s *uploadSession) compare(img int, kind string, body []byte, refs uint64) {
	h := maphash.Bytes(bodySeed, body)
	key := fmt.Sprintf("%d/%s", img, kind)
	s.mu.Lock()
	first, seen := s.seen[key]
	if !seen {
		s.seen[key] = h
	}
	want, counted := s.refs[img]
	if !counted {
		s.refs[img] = refs
	}
	s.mu.Unlock()
	s.env.chk.expect("responses to the same upload are byte-identical", !seen || first == h,
		"image %d %s response differs from the first one", img, kind)
	s.env.chk.expect("classify and mrc count the same accesses per image", !counted || want == refs,
		"image %d: %s counted %d accesses, earlier response %d", img, kind, refs, want)
}

func (s *uploadSession) counters(context.Context) (serviceCounters, error) {
	return serviceCounters{}, nil
}

func (s *uploadSession) stop() (float64, error) {
	s.hc.CloseIdleConnections()
	return s.d.stop()
}
