package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// Serving workloads run mrserve in-process on loopback, over a filesystem
// store, with one closed-loop client on a keep-alive connection: with two,
// their requests contend for both cores and the medians spread about
// twice as much from run to run.

// serveEnv is one running server and the containers it serves.
type serveEnv struct {
	srv    *serve.Server
	hs     *http.Server
	done   chan struct{}
	base   string
	st     *store.FS
	dir    string
	budget int64
	ids    []string          // served containers, readable by clients
	byID   map[string]*input // the input each container was made from
}

// startEnv builds containers[i] from ins[i%len(ins)] as ids
// f00, f01, … and starts a server over them with the given brick-cache
// budget.
func startEnv(r *run, name string, ins []*input, containers int, budget int64) (*serveEnv, error) {
	dir := filepath.Join(r.cfg.workDir, name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, err := store.NewFS(dir)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{st: st, dir: dir, budget: budget, byID: map[string]*input{}}
	for i := 0; i < containers; i++ {
		in := ins[i%len(ins)]
		id := fmt.Sprintf("f%02d", i)
		err := st.Install(context.Background(), id+".mrw", func(w io.Writer) error {
			_, err := repro.CompressTo(in.f, reduceOptions(in), w)
			return err
		})
		if err != nil {
			return nil, err
		}
		e.ids = append(e.ids, id)
		e.byID[id] = in
	}
	e.srv, err = serve.New(serve.Config{
		Store:          st,
		CacheBytes:     budget,
		CacheShards:    4,
		MaxIngestBytes: 1 << 30,
		TraceRing:      1 << 14,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.srv.Close()
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	e.done = make(chan struct{})
	go func() {
		defer close(e.done)
		e.hs.Serve(ln)
	}()
	return e, nil
}

// close stops the server and waits for its accept loop to end.
func (e *serveEnv) close() {
	e.hs.Close()
	<-e.done
	e.srv.Close()
}

// counters reads the cache and decode counters from /metrics.
func (e *serveEnv) counters() (map[string]float64, error) {
	resp, err := http.Get(e.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		for _, name := range []string{"mrserve_cache_hits_total", "mrserve_cache_misses_total",
			"mrserve_cache_evictions_total", "mrserve_backend_decodes_total"} {
			if rest, ok := strings.CutPrefix(line, name); ok && (rest == "" || rest[0] == ' ' || rest[0] == '{') {
				f := strings.Fields(line)
				v, err := strconv.ParseFloat(f[len(f)-1], 64)
				if err != nil {
					return nil, fmt.Errorf("metrics line %q: %w", line, err)
				}
				out[name] += v
			}
		}
	}
	return out, sc.Err()
}

// opKind is one class of serving operation.
type opKind int

const (
	opLevel opKind = iota
	opSlice
	opIngest
)

var opNames = [...]string{"level", "slice", "ingest"}

// servingOp is one request of a client's fixed sequence.
type servingOp struct {
	kind opKind
	id   string
	axis int // slice axis: 0 = x, 1 = y, 2 = z
	k    int
}

// keptBody is a served body checked against the reference after timing.
type keptBody struct {
	op   servingOp
	body []byte
}

// client is one closed-loop HTTP client on its own keep-alive connection.
type client struct {
	hc   *http.Client
	tp   *http.Transport
	body bytes.Buffer
}

func newClient() *client {
	tp := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tp}, tp: tp}
}

// do sends one request and reads the whole body into c.body.
func (c *client) do(method, url string, body []byte, reqID string) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// target is the request URL of op.
func (e *serveEnv) target(op servingOp, ingestEB float64) string {
	switch op.kind {
	case opLevel:
		return fmt.Sprintf("%s/v1/field/%s/level/0", e.base, op.id)
	case opSlice:
		return fmt.Sprintf("%s/v1/field/%s/slice?axis=%s&k=%d", e.base, op.id, "xyz"[op.axis:op.axis+1], op.k)
	default:
		return fmt.Sprintf("%s/v1/field/%s?eb=%s", e.base, op.id, url.QueryEscape(strconv.FormatFloat(ingestEB, 'g', -1, 64)))
	}
}

// bodyDims is the expected shape of a served body.
func bodyDims(op servingOp, n int) [3]int {
	d := [3]int{n, n, n}
	if op.kind == opSlice {
		d[op.axis] = 1
	}
	return d
}

// parseBody checks a served body's 24-byte header and length against the
// expected dimensions.
func parseBody(b []byte, want [3]int) error {
	if len(b) < 24 {
		return fmt.Errorf("body of %d bytes is shorter than the field header", len(b))
	}
	for i := 0; i < 3; i++ {
		if got := int64(binary.LittleEndian.Uint64(b[8*i:])); got != int64(want[i]) {
			return fmt.Errorf("body header dims %v, want %v", dimsOf(b), want)
		}
	}
	if n := 24 + 8*want[0]*want[1]*want[2]; len(b) != n {
		return fmt.Errorf("body of %d bytes, want %d", len(b), n)
	}
	return nil
}

func dimsOf(b []byte) [3]int64 {
	var d [3]int64
	for i := range d {
		d[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return d
}

// servedErr returns the largest error, over the owned level-0 samples a
// served level or slice body carries, against the reference, plus the
// squared-error sum and count for PSNR.
func servedErr(ref *reference, op servingOp, b []byte) (worst, sq float64, cnt int) {
	d := bodyDims(op, ref.n)
	samples := b[24:]
	for z := 0; z < d[2]; z++ {
		for y := 0; y < d[1]; y++ {
			for x := 0; x < d[0]; x++ {
				p := [3]int{x, y, z}
				if op.kind == opSlice {
					p[op.axis] = op.k
				}
				bi := p[0]/ref.b + ref.nb*(p[1]/ref.b+ref.nb*(p[2]/ref.b))
				if !ref.fine[bi] {
					continue
				}
				v := math.Float64frombits(binary.LittleEndian.Uint64(samples[8*(x+d[0]*(y+d[1]*z)):]))
				e := math.Abs(v - ref.l0[p[0]+ref.n*(p[1]+ref.n*p[2])])
				if !(e <= worst) {
					worst = e
					if math.IsNaN(e) {
						worst = math.Inf(1)
					}
				}
				sq += e * e
				cnt++
			}
		}
	}
	return worst, sq, cnt
}

// loadSpec is a serving workload's fixed client behaviour.
type loadSpec struct {
	// next returns the j-th operation.
	next func(j int, rng *rand.Rand) servingOp
	// keep reports whether the j-th operation's body is retained for a
	// value check after timing.
	keep     func(j int, op servingOp) bool
	ingest   map[string][]byte // PUT bodies by id
	ingestEB map[string]float64
}

// tracedBlock is the length of the alternating untraced and traced blocks
// of a traced run's requests: a multiple of every mix's length.
const tracedBlock = 30

// servingResult is what the client measured in one run.
type servingResult struct {
	lat [3][]float64 // ms per class, successful requests only
	// levelBySpan splits the level latencies of a traced run into requests
	// sent without [0] and with [1] a span.
	levelBySpan [2][]float64
	bytes       int64 // response payload bytes of successful reads
	ops         int64 // successful requests
	elapsed     time.Duration
	kept        []keptBody // bodies retained for value checks after the run
	ingested    map[string]int
}

// drive runs the client's fixed sequence until the run's deadline. In a
// traced run, every other block of requests carries a span and a request
// id the server's traces can be matched by.
func drive(r *run, e *serveEnv, spec loadSpec) *servingResult {
	cl := newClient()
	defer cl.tp.CloseIdleConnections()
	rng := rand.New(rand.NewSource(r.cfg.seed * 7919))
	res := &servingResult{ingested: map[string]int{}}
	start := time.Now()
	end := deadline(r.cfg)
	for j := 0; time.Now().Before(end); j++ {
		op := spec.next(j, rng)
		r.attempted++
		method, body := http.MethodGet, []byte(nil)
		if op.kind == opIngest {
			method, body = http.MethodPut, spec.ingest[op.id]
		}
		sid, reqID := -1, ""
		if r.tr != nil && j/tracedBlock%2 == 1 {
			req := r.tr.newReq()
			reqID = fmt.Sprintf("pb-%d", req)
			sid = r.tr.begin("client."+opNames[op.kind], -1, req)
		}
		t0 := time.Now()
		status, err := cl.do(method, e.target(op, spec.ingestEB[op.id]), body, reqID)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		r.tr.end(sid)
		if err == nil && (status < 200 || status > 299) {
			err = fmt.Errorf("status %d: %s", status, strings.TrimSpace(cl.body.String()))
		}
		if err == nil && op.kind != opIngest {
			err = parseBody(cl.body.Bytes(), bodyDims(op, r.cfg.size))
		}
		if err != nil {
			r.failure("%s %s: %v", opNames[op.kind], op.id, err)
			continue
		}
		res.ops++
		res.lat[op.kind] = append(res.lat[op.kind], ms)
		if op.kind == opLevel && r.tr != nil {
			spanned := 0
			if sid >= 0 {
				spanned = 1
			}
			res.levelBySpan[spanned] = append(res.levelBySpan[spanned], ms)
		}
		if op.kind == opIngest {
			res.ingested[op.id]++
			continue
		}
		res.bytes += int64(cl.body.Len() - 24)
		if spec.keep(j, op) {
			res.kept = append(res.kept, keptBody{op, append([]byte(nil), cl.body.Bytes()...)})
		}
	}
	res.elapsed = time.Since(start)
	// The tracing overhead compares level reads sent with and without a
	// span.
	if len(res.levelBySpan[0]) > 0 && len(res.levelBySpan[1]) > 0 {
		r.tr.overheadMs = mean(res.levelBySpan[1]) - mean(res.levelBySpan[0])
	}
	return res
}

// checkKept verifies the retained bodies against the reference and
// returns the PSNR of the served samples.
func checkKept(r *run, e *serveEnv, kept []keptBody) float64 {
	var sq float64 // squared errors over the squared value range
	var cnt int
	for _, k := range kept {
		in := e.byID[k.op.id]
		worst, s, c := servedErr(in.ref, k.op, k.body)
		if worst > in.eb+in.ref.slack(in.eb) {
			r.fault("served %s of %s: max error %.6g exceeds eb %.6g", opNames[k.op.kind], k.op.id, worst, in.eb)
		}
		if k.op.kind == opLevel {
			sq += s / (in.ref.rng * in.ref.rng)
			cnt += c
		}
	}
	if cnt == 0 {
		r.fault("no served level body was checked")
		return 0
	}
	return -10 * math.Log10(sq/float64(cnt))
}

// checkIngested reads every ingested id back through the server and holds
// both levels to the ingest body's reference.
func checkIngested(r *run, e *serveEnv, ins map[string]*input, ingested map[string]int) {
	cl := newClient()
	defer cl.tp.CloseIdleConnections()
	for id := range ingested {
		in := ins[id]
		for l := 0; l < 2; l++ {
			status, err := cl.do(http.MethodGet, fmt.Sprintf("%s/v1/field/%s/level/%d", e.base, id, l), nil, "")
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d", status)
			}
			var f *field.Field
			if err == nil {
				f, err = field.ReadFrom(bytes.NewReader(cl.body.Bytes()))
			}
			var worst float64
			if err == nil {
				worst, err = in.ref.maxLevelErr(l, f)
			}
			if err != nil {
				r.fault("ingested %s level %d: %v", id, l, err)
			} else if worst > in.eb+in.ref.slack(in.eb) {
				r.fault("ingested %s level %d: max error %.6g exceeds eb %.6g", id, l, worst, in.eb)
			}
		}
	}
}

// reportServing derives the serving end-to-end metrics.
func reportServing(r *run, e *serveEnv, res *servingResult, psnr float64) {
	lvl := res.lat[opLevel]
	r.setE2E("read_p50_ms", "ms", median(lvl))
	r.setE2E("read_mb_s", "MB/s", float64(res.bytes)/mb/res.elapsed.Seconds())
	r.setE2E("ops_per_s", "1/s", float64(res.ops)/res.elapsed.Seconds())
	r.setE2E("psnr_db", "dB", psnr)
	raw, packed := 0.0, 0.0
	for _, id := range e.ids {
		fi, err := os.Stat(filepath.Join(e.dir, id+".mrw"))
		if err != nil {
			r.fault("container %s: %v", id, err)
			continue
		}
		raw += float64(e.byID[id].f.Bytes())
		packed += float64(fi.Size())
	}
	r.setE2E("compression_ratio", "x", raw/packed)
	for k, xs := range res.lat {
		if len(xs) == 0 {
			continue
		}
		name := opNames[k]
		r.setDetail(name+"_p50_ms", "ms", median(xs))
		r.setDetail(name+"_count", "count", float64(len(xs)))
		if len(xs) >= 200 {
			r.setDetail(name+"_p95_ms", "ms", quantile(xs, 0.95))
		}
	}
}

// --- browse -----------------------------------------------------------------

// The serving mixes follow the closed-loop mix of mrbench -exp traffic
// (internal/experiments/traffic.go): 60% level, 30% slice, 10% ingest.
// browse reads only, so it keeps the 2:1 ratio of levels to slices; sweep
// repeats that three times and adds the ingest.
var (
	browseMix = []opKind{opLevel, opSlice, opLevel}
	sweepMix  = []opKind{opLevel, opSlice, opLevel, opLevel, opSlice, opLevel, opLevel, opSlice, opLevel, opIngest}
)

// sliceOp fills in the j-th operation's slice position: the axis rotates
// with each slice of the mix, and k is drawn from rng.
func sliceOp(op *servingOp, mix []opKind, j, n int, rng *rand.Rand) {
	op.axis, op.k = countBefore(mix, j, opSlice)%3, rng.Intn(n)
}

func runBrowse(r *run) error {
	n := r.cfg.size
	ins := makeInputs(r)
	e, err := timedSetup(r, func() (*serveEnv, error) {
		// The budget holds every decoded brick four times over, so after
		// the warm-up every read is a hit.
		e, err := startEnv(r, "browse", ins, len(ins), 4*workingSet(n, len(ins)))
		if err != nil {
			return nil, err
		}
		if err := warm(e); err != nil {
			e.close()
			return nil, err
		}
		return e, nil
	}, (*serveEnv).close)
	if err != nil {
		return err
	}
	defer e.close()
	spec := loadSpec{
		next: func(j int, rng *rand.Rand) servingOp {
			op := servingOp{kind: browseMix[j%len(browseMix)], id: e.ids[j/len(browseMix)%len(e.ids)]}
			if op.kind == opSlice {
				sliceOp(&op, browseMix, j, n, rng)
			}
			return op
		},
		// The first level reads of each container and the first slices
		// are checked after timing.
		keep: func(j int, op servingOp) bool {
			return (op.kind == opSlice && j < 64) || (op.kind == opLevel && j < len(browseMix)*len(e.ids))
		},
	}
	return measureServing(r, e, spec, ins, nil)
}

// warm reads every container's level 0 once, so later reads hit the
// brick cache.
func warm(e *serveEnv) error {
	cl := newClient()
	defer cl.tp.CloseIdleConnections()
	for _, id := range e.ids {
		status, err := cl.do(http.MethodGet, e.target(servingOp{kind: opLevel, id: id}, 0), nil, "")
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up read of %s: status %d", id, status)
		}
	}
	return nil
}

// workingSet is the decoded-brick bytes of n³ containers: level 0 at full
// resolution plus level 1 at one eighth.
func workingSet(n, containers int) int64 {
	return int64(containers) * int64(n*n*n) * 8 * 9 / 8
}

// measureServing drives the load, checks what was served and reports.
func measureServing(r *run, e *serveEnv, spec loadSpec, ins []*input, ingestIns map[string]*input) error {
	before, err := e.counters()
	if err != nil {
		return err
	}
	var ms0 runtimeStats
	ms0.read()
	res := drive(r, e, spec)
	var ms1 runtimeStats
	ms1.read()
	after, err := e.counters()
	if err != nil {
		return err
	}
	psnr := checkKept(r, e, res.kept)
	if ingestIns != nil {
		if len(res.ingested) == 0 {
			r.fault("no ingest completed")
		}
		checkIngested(r, e, ingestIns, res.ingested)
	}
	reportServing(r, e, res, psnr)
	if r.tr == nil {
		return nil
	}
	reads := float64(len(res.lat[opLevel]) + len(res.lat[opSlice]))
	setCacheLayers(r, before, after, reads)
	setRuntimeLayers(r, ms0, ms1, float64(res.ops))
	// probeLayers imports the server's traces, the workload's with the
	// probe's, once.
	return probeLayers(r, ins, e)
}

// setCacheLayers derives the cache and decode ratios from /metrics deltas.
func setCacheLayers(r *run, before, after map[string]float64, reads float64) {
	d := func(k string) float64 { return after[k] - before[k] }
	lookups := d("mrserve_cache_hits_total") + d("mrserve_cache_misses_total")
	hit := 0.0
	if lookups > 0 {
		hit = d("mrserve_cache_hits_total") / lookups
	}
	r.setLayer("cache.hit_ratio", "ratio", hit)
	r.setLayer("cache.evictions_per_read", "count", d("mrserve_cache_evictions_total")/reads)
	r.setLayer("reader.decodes_per_read", "count", d("mrserve_backend_decodes_total")/reads)
}

// importServerTraces copies the server's traces of the benchmark's traced
// requests into the span set, as children of the client spans that caused
// them (matched by request id).
func importServerTraces(r *run, e *serveEnv) {
	tr := r.tr
	clientSpan := map[int64]int{}
	for i, s := range tr.spans {
		if strings.HasPrefix(s.Name, "client.") {
			clientSpan[s.Req] = i
		}
	}
	for _, t := range e.srv.Collector().Traces(0) {
		num, isOurs := strings.CutPrefix(t.ID, "pb-")
		req, err := strconv.ParseInt(num, 10, 64)
		parent, ok := clientSpan[req]
		if !isOurs || err != nil || !ok {
			continue
		}
		importTrace(tr, t, parent, req)
	}
}

// importTrace adds one obs trace's spans under parent. obs names a span's
// parent by name; the parent is the enclosing span of that name.
func importTrace(tr *tracer, t obs.TraceSnapshot, parent int, req int64) {
	base := tr.at(t.Start)
	idx := make([]int, len(t.Spans))
	for i := range idx {
		idx[i] = -1
	}
	// Spans are recorded when they end, so parents come after children:
	// add them in start order so each parent exists before its children.
	order := make([]int, len(t.Spans))
	for i := range order {
		order[i] = i
	}
	sortByStart(order, t.Spans)
	for _, i := range order {
		s := t.Spans[i]
		p := parent
		if s.Parent != "" {
			for _, j := range order {
				q := t.Spans[j]
				if q.Name == s.Parent && q.StartNs <= s.StartNs && q.StartNs+q.DurationNs >= s.StartNs+s.DurationNs && idx[j] >= 0 {
					p = idx[j]
				}
			}
		}
		idx[i] = tr.add(span{Name: "obs." + s.Name, StartNs: base + s.StartNs, EndNs: base + s.StartNs + s.DurationNs, Parent: p, Req: req})
	}
}

func sortByStart(order []int, spans []obs.SpanSnapshot) {
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && spans[order[j]].StartNs < spans[order[j-1]].StartNs; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

// countBefore returns how many of a repeating mix's first j operations
// are of kind k.
func countBefore(mix []opKind, j int, k opKind) int {
	n := 0
	for i, m := range mix {
		if m == k {
			n += j / len(mix)
			if i < j%len(mix) {
				n++
			}
		}
	}
	return n
}

// --- sweep ------------------------------------------------------------------

// sweepContainers is how many containers the sweep walks; with a cache
// budget of 2.5 level-0 bricks the walk misses on every read.
const sweepContainers = 8

func runSweep(r *run) error {
	n := r.cfg.size
	ins := makeInputs(r)
	ingest := map[string][]byte{}
	ingestEB := map[string]float64{}
	ingestIns := map[string]*input{}
	for i, in := range ins {
		id := fmt.Sprintf("ingest%d", i)
		var b bytes.Buffer
		if _, err := in.f.WriteTo(&b); err != nil {
			return err
		}
		ingest[id], ingestEB[id], ingestIns[id] = b.Bytes(), in.eb, in
	}
	e, err := timedSetup(r, func() (*serveEnv, error) {
		// The cache admits a brick of up to half its budget, so a budget
		// of 2.5 level-0 bricks caches each read and evicts an older one.
		budget := int64(n*n*n) * 8 * 5 / 2
		return startEnv(r, "sweep", ins, sweepContainers, budget)
	}, (*serveEnv).close)
	if err != nil {
		return err
	}
	defer e.close()
	spec := loadSpec{
		next: func(j int, rng *rand.Rand) servingOp {
			op := servingOp{kind: sweepMix[j%len(sweepMix)]}
			ingests := countBefore(sweepMix, j, opIngest)
			if op.kind == opIngest {
				op.id = fmt.Sprintf("ingest%d", ingests%len(ins))
				return op
			}
			// Every read moves to the next container, so no brick is
			// still cached when the walk comes back to it.
			op.id = e.ids[(j-ingests)%len(e.ids)]
			if op.kind == opSlice {
				sliceOp(&op, sweepMix, j, n, rng)
			}
			return op
		},
		keep: func(j int, op servingOp) bool {
			return (op.kind == opSlice && j < 64) || (op.kind == opLevel && j < 4)
		},
		ingest:   ingest,
		ingestEB: ingestEB,
	}
	return measureServing(r, e, spec, ins, ingestIns)
}
