package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/postproc"
	"repro/internal/roi"
	"repro/internal/uncertainty"
)

// setupRepeats is how many times a run performs the program's set-up;
// setup_s is the median, which keeps one slow repetition from moving it.
const setupRepeats = 5

// timedSetup runs build setupRepeats times, records the median as
// setup_s and returns the last result. Each earlier result is released
// before the next build, so no two exist at once.
func timedSetup[T any](r *run, build func() (T, error), release func(T)) (T, error) {
	var out T
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 && release != nil {
			release(out)
		}
		// Every build starts from a collected heap, so the memory a
		// released result held is reused rather than added to.
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, err
		}
		times = append(times, time.Since(t0).Seconds())
		out = v
	}
	r.setE2E("setup_s", "s", median(times))
	return out, nil
}

// makeInputs generates one field of every input kind with its reference.
// The synthetic fields stand in for simulation output, so their
// generation is timed apart from the program's set-up (inputs_s).
func makeInputs(r *run) []*input {
	t0 := time.Now()
	ins := make([]*input, len(inputKinds))
	var wg sync.WaitGroup
	for i := range inputKinds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ins[i] = makeInput(i, r.cfg.size, r.cfg.seed)
		}(i)
	}
	wg.Wait()
	r.setDetail("inputs_s", "s", time.Since(t0).Seconds())
	return ins
}

// offlineClass is one (input, method) pair of an offline workload. Its
// first operation fixes the expected container bytes; every later one must
// reproduce them.
type offlineClass struct {
	in       *input
	method   string
	blob     []byte
	psnr     float64
	compress []float64 // ms per operation
	decomp   []float64
	uncert   []float64
	op       []float64
}

// offlineOp is one operation's outputs.
type offlineOp struct {
	blob   []byte
	h      *grid.Hierarchy
	intens []postproc.Intensity
	cross  *field.Field
	iso    float64
	tc, td time.Duration // compress, decompress
	tu     time.Duration // flatten + crossing probabilities (refine only)
}

// offlineLoop runs whole rounds of op over the classes until the deadline
// (at least one round), checking every operation's output. With a tracer,
// rounds alternate between untraced and traced, so a drift in the host's
// speed falls on both alike, and the difference of their mean operation
// times is the tracing overhead.
func offlineLoop(r *run, classes []*offlineClass, op func(c *offlineClass, buf *bytes.Buffer, traced bool) (*offlineOp, error), check func(c *offlineClass, o *offlineOp)) {
	var buf bytes.Buffer
	end := deadline(r.cfg)
	var plain, traced []float64
	var ms0, ms1 runtimeStats
	ms0.read()
	for round := 0; round == 0 || time.Now().Before(end); round++ {
		useTrace := r.tr != nil && round%2 == 1
		for _, c := range classes {
			r.attempted++
			t0 := time.Now()
			o, err := op(c, &buf, useTrace)
			total := time.Since(t0)
			if err != nil {
				r.failure("%s/%s: %v", c.in.name, c.method, err)
				continue
			}
			ms := float64(total.Nanoseconds()) / 1e6
			if useTrace {
				traced = append(traced, ms)
			} else {
				plain = append(plain, ms)
			}
			c.compress = append(c.compress, float64(o.tc.Nanoseconds())/1e6)
			c.decomp = append(c.decomp, float64(o.td.Nanoseconds())/1e6)
			c.uncert = append(c.uncert, float64(o.tu.Nanoseconds())/1e6)
			c.op = append(c.op, ms)
			check(c, o)
		}
	}
	ms1.read()
	if r.tr != nil {
		setRuntimeLayers(r, ms0, ms1, float64(len(plain)+len(traced)))
		if len(plain) > 0 && len(traced) > 0 {
			r.tr.overheadMs = mean(traced) - mean(plain)
		}
	}
}

// warmUp is the offline workloads' set-up: one untimed operation per
// class, so the measured phase starts with the heap grown to its working
// size.
func warmUp(r *run, classes []*offlineClass, op func(c *offlineClass, buf *bytes.Buffer, traced bool) (*offlineOp, error)) error {
	_, err := timedSetup(r, func() (struct{}, error) {
		var buf bytes.Buffer
		for _, c := range classes {
			if _, err := op(c, &buf, false); err != nil {
				return struct{}{}, fmt.Errorf("warm-up %s/%s: %w", c.in.name, c.method, err)
			}
		}
		return struct{}{}, nil
	}, nil)
	return err
}

// checkBlob compares an operation's container with its class's first and
// reports whether this operation was the first.
func checkBlob(r *run, c *offlineClass, blob []byte) bool {
	if c.blob == nil {
		c.blob = append([]byte(nil), blob...)
		return true
	}
	if !bytes.Equal(c.blob, blob) {
		r.fault("%s/%s: container bytes differ between operations on the same input", c.in.name, c.method)
	}
	return false
}

// reportOffline derives the end-to-end metrics from per-class medians.
// Each class is one input kind and method at one size, so every median
// covers one class of operation.
func reportOffline(r *run, classes []*offlineClass) {
	var comp, dec, unc, op, psnr []float64
	raw, packed := 0.0, 0.0
	for _, c := range classes {
		if len(c.op) == 0 {
			continue
		}
		comp = append(comp, median(c.compress))
		dec = append(dec, median(c.decomp))
		unc = append(unc, median(c.uncert))
		op = append(op, median(c.op))
		psnr = append(psnr, c.psnr)
		raw += float64(c.in.f.Bytes())
		packed += float64(len(c.blob))
	}
	if len(op) == 0 {
		return
	}
	fieldMB := float64(classes[0].in.f.Bytes()) / mb
	r.setE2E("ops_per_s", "1/s", 1000/mean(op))
	r.setE2E("read_p50_ms", "ms", mean(dec))
	r.setE2E("read_mb_s", "MB/s", fieldMB/(mean(dec)/1000))
	r.setE2E("compression_ratio", "x", raw/packed)
	r.setE2E("psnr_db", "dB", mean(psnr))
	r.setDetail("compress_mb_s", "MB/s", fieldMB/(mean(comp)/1000))
	r.setDetail("compress_p50_ms", "ms", mean(comp))
	r.setDetail("decompress_mb_s", "MB/s", fieldMB/(mean(dec)/1000))
	if mean(unc) > 0 {
		r.setDetail("uncertainty_ms", "ms", mean(unc))
	}
	r.setDetail("ops_per_class", "count", float64(len(classes[0].op)))
}

// --- reduce -----------------------------------------------------------------

// reduceOptions is the paper's recommended path, as mrcompress runs it.
func reduceOptions(in *input) repro.Options {
	return repro.Options{EB: in.eb, ROIBlockB: roiBlock, ROITopFrac: roiTopFrac, Workers: 1}
}

// sz3mrCoreOptions is what reduceOptions resolves to inside the workflow;
// the traced run calls the layers with it directly.
func sz3mrCoreOptions(eb float64) core.Options {
	o := core.SZ3MROptions(eb)
	o.Workers = 1
	return o
}

// reduceOp compresses one input with SZ3MR into memory and decodes it.
func reduceOp(r *run) func(c *offlineClass, buf *bytes.Buffer, traced bool) (*offlineOp, error) {
	return func(c *offlineClass, buf *bytes.Buffer, traced bool) (*offlineOp, error) {
		buf.Reset()
		o := &offlineOp{}
		if !traced {
			t0 := time.Now()
			if _, err := repro.CompressTo(c.in.f, reduceOptions(c.in), buf); err != nil {
				return nil, err
			}
			o.tc = time.Since(t0)
			t0 = time.Now()
			h, err := repro.DecompressWorkers(buf.Bytes(), 1)
			if err != nil {
				return nil, err
			}
			o.td, o.blob, o.h = time.Since(t0), buf.Bytes(), h
			return o, nil
		}
		tr := r.tr
		req := tr.newReq()
		root := tr.begin("reduce.op", -1, req)
		defer tr.end(root)
		t0 := time.Now()
		if _, err := compressLayers(tr, root, req, c.in.f, sz3mrCoreOptions(c.in.eb), buf, false); err != nil {
			return nil, err
		}
		o.tc = time.Since(t0)
		t0 = time.Now()
		err := tr.call("core.decompress", root, req, func() (err error) {
			o.h, err = core.DecompressWorkers(buf.Bytes(), 1)
			return err
		})
		if err != nil {
			return nil, err
		}
		o.td, o.blob = time.Since(t0), buf.Bytes()
		return o, nil
	}
}

// compressLayers is the compress side of an operation split into its
// layers: ROI conversion, preparation, optional intensity sampling and the
// container write. It returns the sampled intensities (nil unless sample).
func compressLayers(tr *tracer, parent int, req int64, f *field.Field, co core.Options, buf *bytes.Buffer, sample bool) ([]postproc.Intensity, error) {
	var h *grid.Hierarchy
	err := tr.call("roi.convert", parent, req, func() (err error) {
		h, err = roi.Convert(f, roi.Options{BlockB: roiBlock, TopFrac: roiTopFrac})
		return err
	})
	if err != nil {
		return nil, err
	}
	var prep *core.Prepared
	err = tr.call("core.prepare", parent, req, func() (err error) {
		prep, err = core.Prepare(h, co)
		return err
	})
	if err != nil {
		return nil, err
	}
	var intens []postproc.Intensity
	if sample {
		err = tr.call("postproc.sample", parent, req, func() (err error) {
			intens, err = prep.FindIntensities()
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	err = tr.call("core.compress", parent, req, func() error {
		_, err := prep.CompressTo(buf)
		return err
	})
	return intens, err
}

func runReduce(r *run) error {
	ins := makeInputs(r)
	classes := make([]*offlineClass, len(ins))
	for i, in := range ins {
		classes[i] = &offlineClass{in: in, method: "sz3mr"}
	}
	if err := warmUp(r, classes, reduceOp(r)); err != nil {
		return err
	}
	offlineLoop(r, classes, reduceOp(r), func(c *offlineClass, o *offlineOp) {
		worst, err := c.in.ref.checkHierarchy(o.h)
		if err != nil {
			r.fault("%s/sz3mr: %v", c.in.name, err)
		} else if worst > c.in.eb+c.in.ref.slack(c.in.eb) {
			r.fault("%s/sz3mr: max error %.6g exceeds eb %.6g", c.in.name, worst, c.in.eb)
		}
		if checkBlob(r, c, o.blob) {
			c.psnr = c.in.ref.psnr(o.h.Flatten())
		}
	})
	reportOffline(r, classes)
	if r.tr != nil {
		return probeLayers(r, ins, nil)
	}
	return nil
}

// --- refine -----------------------------------------------------------------

// refineMethods are the two block-wise backends with post-processing.
var refineMethods = []struct {
	name string
	opt  func(eb float64) core.Options
}{
	{"sz2", core.AMRICSZ2Options},
	{"zfp", core.MRZFPOptions},
}

// isoValue derives the analyzed isovalue from the input: its mean.
func isoValue(f *field.Field) float64 { return f.Mean() }

// errorModel is the workflow's model for a uniform error over ±eb.
func errorModel(eb float64) uncertainty.ErrorModel {
	return uncertainty.ErrorModel{StdDev: eb / math.Sqrt(3)}
}

func refineOp(r *run, opts map[string]func(float64) core.Options) func(c *offlineClass, buf *bytes.Buffer, traced bool) (*offlineOp, error) {
	return func(c *offlineClass, buf *bytes.Buffer, traced bool) (*offlineOp, error) {
		buf.Reset()
		var tr *tracer
		req, root := int64(0), -1
		if traced {
			tr = r.tr
			req = tr.newReq()
			root = tr.begin("refine.op", -1, req)
			defer tr.end(root)
		}
		co := opts[c.method](c.in.eb)
		co.Workers = 1
		o := &offlineOp{iso: isoValue(c.in.f)}
		t0 := time.Now()
		intens, err := compressLayers(tr, root, req, c.in.f, co, buf, true)
		if err != nil {
			return nil, err
		}
		o.tc, o.intens, o.blob = time.Since(t0), intens, buf.Bytes()
		t0 = time.Now()
		err = tr.call("core.decompress_processed", root, req, func() (err error) {
			o.h, err = core.DecompressProcessedWorkers(o.blob, intens, 1)
			return err
		})
		if err != nil {
			return nil, err
		}
		o.td = time.Since(t0)
		t0 = time.Now()
		var recon *field.Field
		tr.call("grid.flatten", root, req, func() error { recon = o.h.Flatten(); return nil })
		err = tr.call("uncertainty.cross", root, req, func() (err error) {
			o.cross, err = uncertainty.CrossProbabilities(recon, o.iso, errorModel(c.in.eb))
			return err
		})
		if err != nil {
			return nil, err
		}
		o.tu = time.Since(t0)
		return o, nil
	}
}

func runRefine(r *run) error {
	ins := makeInputs(r)
	opts := map[string]func(float64) core.Options{}
	var classes []*offlineClass
	for _, in := range ins {
		for _, m := range refineMethods {
			opts[m.name] = m.opt
			classes = append(classes, &offlineClass{in: in, method: m.name})
		}
	}
	// One warm-up operation per method: the first input's.
	if err := warmUp(r, classes[:len(refineMethods)], refineOp(r, opts)); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.cfg.seed))
	intensities := map[*offlineClass][]postproc.Intensity{}
	offlineLoop(r, classes, refineOp(r, opts), func(c *offlineClass, o *offlineOp) {
		if prev, ok := intensities[c]; ok && fmt.Sprint(prev) != fmt.Sprint(o.intens) {
			r.fault("%s/%s: intensities differ between operations on the same input", c.in.name, c.method)
		}
		intensities[c] = o.intens
		checkProcessed(r, c, o)
		checkCross(r, c, o, rng)
		if checkBlob(r, c, o.blob) {
			c.psnr = c.in.ref.psnr(o.h.Flatten())
		}
	})
	reportOffline(r, classes)
	if r.tr != nil {
		return probeLayers(r, ins, nil)
	}
	return nil
}

// checkProcessed holds each post-processed level to (1 + max a)·eb, the
// bound postproc.Process guarantees for intensity a.
func checkProcessed(r *run, c *offlineClass, o *offlineOp) {
	ref := c.in.ref
	if _, err := ref.checkHierarchy(o.h); err != nil {
		r.fault("%s/%s: %v", c.in.name, c.method, err)
		return
	}
	for l := 0; l < 2; l++ {
		amax := 0.0
		if l < len(o.intens) {
			amax = math.Max(o.intens[l][0], math.Max(o.intens[l][1], o.intens[l][2]))
		}
		bound := (1 + amax) * c.in.eb
		worst, _ := ref.maxLevelErr(l, o.h.Levels[l].Data)
		// The largest post-processed error in units of eb shows how far
		// the output goes past the bound the package doc promises.
		if e := worst / c.in.eb; e > r.detail["postproc_max_err_eb"].Value {
			r.setDetail("postproc_max_err_eb", "eb", e)
		}
		if worst > bound+ref.slack(bound) {
			r.fault("%s/%s: level %d max error %.6g exceeds (1+%.3g)·eb = %.6g", c.in.name, c.method, l, worst, amax, bound)
		}
	}
}

// checkCross recomputes sampled cells of the crossing probabilities as
// 1 − Πp − Π(1−p), with p from erf, and requires every value in [0, 1].
func checkCross(r *run, c *offlineClass, o *offlineOp, rng *rand.Rand) {
	p := o.cross
	n := c.in.ref.n
	if p.Nx != n-1 || p.Ny != n-1 || p.Nz != n-1 {
		r.fault("%s/%s: crossing field %dx%dx%d, want %d³", c.in.name, c.method, p.Nx, p.Ny, p.Nz, n-1)
		return
	}
	for i, v := range p.Data {
		if !(v >= 0 && v <= 1) {
			r.fault("%s/%s: crossing probability %g at cell %d outside [0,1]", c.in.name, c.method, v, i)
			return
		}
	}
	recon := o.h.Flatten()
	sigma := c.in.eb / math.Sqrt(3)
	above := func(d float64) float64 { return 0.5 * (1 - math.Erf((o.iso-d)/(sigma*math.Sqrt2))) }
	for k := 0; k < 256; k++ {
		x, y, z := rng.Intn(n-1), rng.Intn(n-1), rng.Intn(n-1)
		all, none := 1.0, 1.0
		for d := 0; d < 8; d++ {
			q := above(recon.At(x+d&1, y+d>>1&1, z+d>>2))
			all *= q
			none *= 1 - q
		}
		want := 1 - all - none
		if got := p.At(x, y, z); math.Abs(got-want) > 1e-9 {
			r.fault("%s/%s: crossing probability at (%d,%d,%d) is %.12g, want %.12g", c.in.name, c.method, x, y, z, got, want)
			return
		}
	}
}
