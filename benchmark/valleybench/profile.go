package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"valleymap/internal/entropy"
	"valleymap/internal/layout"
	"valleymap/internal/mapping"
	"valleymap/internal/service"
	"valleymap/internal/trace"
	"valleymap/internal/workload"
)

// upload is one trace body a profile-upload client sends.
type upload struct {
	abbr   string
	binary bool           // VTRC instead of CSV
	scheme mapping.Scheme // "" profiles the unmapped trace
	body   []byte
}

func (u *upload) format() string {
	if u.binary {
		return "vtrc"
	}
	return "csv"
}

// encodeTraces generates every built-in workload's trace and encodes it
// as CSV and as VTRC, each sent unmapped and under PAE.
func encodeTraces(scale workload.Scale) ([]upload, error) {
	var out []upload
	for _, spec := range workload.All() {
		app := spec.Build(scale)
		var csv, vtrc bytes.Buffer
		if err := trace.WriteCSV(&csv, app); err != nil {
			return nil, fmt.Errorf("encoding %s as CSV: %w", spec.Abbr, err)
		}
		if err := trace.WriteBinary(&vtrc, app); err != nil {
			return nil, fmt.Errorf("encoding %s as VTRC: %w", spec.Abbr, err)
		}
		for _, sc := range []mapping.Scheme{"", mapping.PAE} {
			out = append(out,
				upload{abbr: spec.Abbr, scheme: sc, body: csv.Bytes()},
				upload{abbr: spec.Abbr, binary: true, scheme: sc, body: vtrc.Bytes()})
		}
	}
	return out, nil
}

// profileReply is the part of a /v1/profile answer the benchmark checks.
type profileReply struct {
	PerBit   []float64 `json:"per_bit"`
	CacheKey string    `json:"cache_key"`
}

func postProfile(c *http.Client, url string, u *upload, bimSeed int64) (profileReply, error) {
	var rep profileReply
	target := url + "/v1/profile"
	if u.scheme != "" {
		target += "?scheme=" + string(u.scheme) + "&seed=" + strconv.FormatInt(bimSeed, 10)
	}
	contentType := "text/csv"
	if u.binary {
		contentType = "application/x-valley-trace"
	}
	resp, err := c.Post(target, contentType, bytes.NewReader(u.body))
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return rep, fmt.Errorf("profile %s (%s): %s: %s", u.abbr, u.format(), resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return rep, fmt.Errorf("decoding profile of %s: %w", u.abbr, err)
	}
	return rep, nil
}

// profileRefs holds the first answer for each (trace, scheme); every
// later answer, from either container, must repeat it exactly.
type profileRefs struct {
	mu sync.Mutex
	m  map[string]profileReply
}

func (p *profileRefs) check(u *upload, got profileReply, checkKey bool) error {
	key := u.abbr + "|" + string(u.scheme)
	p.mu.Lock()
	defer p.mu.Unlock()
	want, ok := p.m[key]
	if !ok {
		if len(got.PerBit) == 0 {
			return fmt.Errorf("empty profile of %s (%s)", u.abbr, u.format())
		}
		p.m[key] = got
		return nil
	}
	if !slices.Equal(got.PerBit, want.PerBit) || (checkKey && got.CacheKey != want.CacheKey) {
		return fmt.Errorf("%s profile of %s (scheme %q) disagrees with an earlier one of the same trace", u.format(), u.abbr, u.scheme)
	}
	return nil
}

// runProfileUpload drives the ingest path: two clients POST full-scale
// CSV and VTRC encodings of all 18 built-in workloads to /v1/profile in
// seeded order, half of them under PAE. It loads HTTP body reads, trace
// decode, coalesce, entropy accumulation, BIM apply and the profile
// cache, and bypasses gpusim and the simulation cache.
func runProfileUpload(r *run) error {
	scale, err := parseScale(r.scale("full"))
	if err != nil {
		return err
	}
	bimSeed := 1 + r.rng.Int63n(1_000_000)
	var uploads []upload
	d, err := r.startDaemons(func(*daemon) (err error) {
		uploads, err = encodeTraces(scale)
		return err
	})
	if err != nil {
		return err
	}
	defer d.stop() //nolint:errcheck // error paths only; the success path checks it
	clients := clientCount()
	client := newClient(clients)
	defer client.CloseIdleConnections()
	orders := make([][]int, clients)
	for c := range orders {
		orders[c] = r.rng.Perm(len(uploads))
	}
	refs := &profileRefs{m: map[string]profileReply{}}
	next := make([]int, clients)
	op := func(traced bool) func(int) {
		return func(c int) {
			u := &uploads[orders[c][next[c]%len(uploads)]]
			next[c]++
			start := time.Now()
			rep, err := postProfile(client, d.url, u, bimSeed)
			end := time.Now()
			if err == nil {
				err = refs.check(u, rep, true)
			}
			r.attempt(err)
			if err != nil {
				return
			}
			r.sample(opSample(traced), ms(end.Sub(start)))
			r.sample("uploaded_mb", float64(len(u.body))/(1<<20))
			if traced {
				r.spans.add(0, "http.profile "+u.abbr+" "+u.format(), start, end)
			}
		}
	}
	if !r.traced {
		return r.measureDaemon(d, clients, op, nil)
	}

	m := d.svc.Metrics()
	hits0, misses0 := m.CacheCounts()
	if err := r.traceWindow(clients, op); err != nil {
		return err
	}
	hits, misses := m.CacheCounts()
	r.set("cache.profile_hit_ratio", float64(hits-hits0)/float64(max(hits-hits0+misses-misses0, 1)))
	r.probeIngest(client, d, uploads, bimSeed, refs)
	return nil
}

// stageTimes is one upload's time in each ingest stage, measured
// outside the service by rebuilding its pipeline from the same public
// pieces: decoder → coalescer → accumulator (with the BIM batch
// transform inside the accumulator's fold).
type stageTimes struct {
	decode, coalesce, fold, mapping time.Duration
	rows, coalesced, mapped         int
}

func (t *stageTimes) add(o stageTimes) {
	t.decode += o.decode
	t.coalesce += o.coalesce
	t.fold += o.fold
	t.mapping += o.mapping
	t.rows += o.rows
	t.coalesced += o.coalesced
	t.mapped += o.mapped
}

// rowCounter counts the requests flowing through a stream.
type rowCounter struct {
	s trace.Stream
	n int
}

func (c *rowCounter) Next() (*trace.Batch, error) {
	b, err := c.s.Next()
	if err == nil {
		c.n += len(b.Requests)
	}
	return b, err
}

// timedPipeline profiles one upload through trace.NewTimedStream stages
// and entropy's fold hook, with the service's default analysis options.
func timedPipeline(u *upload, bimSeed int64) (entropy.Profile, stageTimes, error) {
	var st stageTimes
	var dec trace.Stream = trace.NewCSVStream(bytes.NewReader(u.body))
	if u.binary {
		dec = trace.NewBinaryStream(bytes.NewReader(u.body))
	}
	decode := trace.NewTimedStream(dec, nil, func(d time.Duration) { st.decode += d })
	raw := &rowCounter{s: decode}
	coalesce := trace.NewTimedStream(trace.CoalesceStream(raw, 128), decode, func(d time.Duration) { st.coalesce += d })
	out := &rowCounter{s: coalesce}
	opt := entropy.StreamOptions{Window: 12, Bits: 30, OnFold: func(d time.Duration) { st.fold += d }}
	if u.scheme != "" {
		m, err := mapping.New(u.scheme, layout.HynixGDDR5(), mapping.Options{Seed: bimSeed})
		if err != nil {
			return entropy.Profile{}, st, err
		}
		opt.BatchTransform = func(addrs []uint64) {
			start := time.Now()
			m.MapBatch(addrs)
			st.mapping += time.Since(start)
			st.mapped += len(addrs)
		}
	}
	prof, err := entropy.ProfileStream(out, opt)
	st.rows, st.coalesced = raw.n, out.n
	return prof, st, err
}

// probeIngest takes every upload once, in seeded order and one at a
// time, through HTTP, through the service's in-process ProfileStream
// entry points and through the timed stage pipeline, checking each
// answer against the window's. It samples what HTTP adds to the
// in-process call, and what the service adds to the stages.
func (r *run) probeIngest(client *http.Client, d *daemon, uploads []upload, bimSeed int64, refs *profileRefs) {
	var csv, vtrc, all stageTimes
	for _, i := range r.rng.Perm(len(uploads)) {
		u := &uploads[i]
		t0 := time.Now()
		rep, err := postProfile(client, d.url, u, bimSeed)
		t1 := time.Now()
		if err == nil {
			err = refs.check(u, rep, true)
		}
		r.attempt(err)
		if err != nil {
			continue
		}
		profileStream := d.svc.ProfileStream
		if u.binary {
			profileStream = d.svc.ProfileStreamBinary
		}
		res, _, err := profileStream(bytes.NewReader(u.body), service.ProfileRequest{Scheme: string(u.scheme), Seed: bimSeed})
		t2 := time.Now()
		if err == nil {
			err = refs.check(u, profileReply{PerBit: res.PerBit, CacheKey: res.CacheKey}, true)
		}
		r.attempt(err)
		if err != nil {
			continue
		}
		prof, st, err := timedPipeline(u, bimSeed)
		if err == nil {
			err = refs.check(u, profileReply{PerBit: prof.PerBit}, false)
		}
		r.attempt(err)
		if err != nil {
			continue
		}
		r.spans.add(0, "http.profile "+u.abbr+" "+u.format(), t0, t1)
		r.spans.add(0, "service.profile "+u.abbr+" "+u.format(), t1, t2)
		r.sample("http_self_ms", ms(t1.Sub(t0)-t2.Sub(t1)))
		r.sample("profile_self_ms", ms(t2.Sub(t1)-st.decode-st.coalesce-st.fold))
		all.add(st)
		if u.binary {
			vtrc.add(st)
		} else {
			csv.add(st)
		}
	}
	perRow := func(d time.Duration, rows int) float64 { return float64(d) / float64(max(rows, 1)) }
	r.set("trace.decode_ns_per_row.csv", perRow(csv.decode, csv.rows))
	r.set("trace.decode_ns_per_row.vtrc", perRow(vtrc.decode, vtrc.rows))
	r.set("trace.coalesce_ns_per_row", perRow(all.coalesce, all.rows))
	r.set("trace.coalesce_ratio", float64(all.coalesced)/float64(max(all.rows, 1)))
	r.set("entropy.fold_ns_per_row", perRow(all.fold-all.mapping, all.coalesced))
	r.set("bim.map_ns_per_addr", perRow(all.mapping, all.mapped))
	r.set("service.profile_self_ms", median(r.samplesOf("profile_self_ms")))
	r.set("http.profile_self_ms", median(r.samplesOf("http_self_ms")))
}
