package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro"
	"repro/internal/cache"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/huffman"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/reader"
	"repro/internal/roi"
	"repro/internal/sz2"
	"repro/internal/sz3"
)

// The layer probe runs after a traced run's measured phase. It calls
// every layer from outside, on the run's first input, so each per-layer
// metric has samples on every workload; the workload's own traced
// operations add theirs to the same span names.
const probeReps = 3

// runtimeStats is a runtime.MemStats snapshot of the counters reported
// per operation.
type runtimeStats struct {
	alloc uint64
	gc    uint32
}

func (s *runtimeStats) read() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.alloc, s.gc = m.TotalAlloc, m.NumGC
}

func setRuntimeLayers(r *run, a, b runtimeStats, ops float64) {
	r.setLayer("runtime.alloc_mb_per_op", "MB", float64(b.alloc-a.alloc)/mb/ops)
	r.setLayer("runtime.gc_per_op", "count", float64(b.gc-a.gc)/ops)
}

// probeLayers runs the codec and serving probes and turns the recorded
// spans into the per-layer metrics. e is the workload's server, or nil
// for the offline workloads, which get a server of their own here.
func probeLayers(r *run, ins []*input, e *serveEnv) error {
	if err := probeSZ3MR(r, ins[0]); err != nil {
		return err
	}
	if err := probeBlockCodecs(r, ins[0]); err != nil {
		return err
	}
	if e == nil {
		pe, err := startEnv(r, "probe", ins, len(ins), 4*workingSet(r.cfg.size, len(ins)))
		if err != nil {
			return err
		}
		defer pe.close()
		before, err := pe.counters()
		if err != nil {
			return err
		}
		reads := probeRequests(r, pe, ins[0])
		after, err := pe.counters()
		if err != nil {
			return err
		}
		setCacheLayers(r, before, after, reads)
		importServerTraces(r, pe)
		e = pe
	} else {
		probeRequests(r, e, ins[0])
		importServerTraces(r, e)
	}
	if err := probeReader(r, e, ins[0]); err != nil {
		return err
	}
	setSpanLayers(r)
	return nil
}

// probeSZ3MR splits the SZ3MR path of one input into its layers:
// preparation, prediction and quantization, Huffman coding, per-stream
// codec decode and the container decode around it.
func probeSZ3MR(r *run, in *input) error {
	tr := r.tr
	co := sz3mrCoreOptions(in.eb)
	var assemble []float64
	var bits, codes float64
	for rep := 0; rep < probeReps; rep++ {
		req := tr.newReq()
		root := tr.begin("probe.sz3mr", -1, req)
		var buf bytes.Buffer
		if _, err := compressLayers(tr, root, req, in.f, co, &buf, false); err != nil {
			return err
		}
		h, err := roi.Convert(in.f, roi.Options{BlockB: roiBlock, TopFrac: roiTopFrac})
		if err != nil {
			return err
		}
		var padded [][]int32
		err = tr.call("sz3.predict", root, req, func() error {
			for li := range h.Levels {
				m := layout.LinearMerge(h, li)
				if m.Data == nil {
					continue
				}
				c, err := sz3.Codes(layout.PadXY(m.Data, co.PadKind), sz3.Options{
					EB: co.EB, LevelEB: sz3.AdaptiveLevelEB(co.EB, 2.25, 8)})
				if err != nil {
					return err
				}
				padded = append(padded, c)
			}
			return nil
		})
		if err != nil {
			return err
		}
		var enc [][]byte
		tr.call("huffman.encode", root, req, func() error {
			for _, c := range padded {
				enc = append(enc, huffman.Encode(c))
			}
			return nil
		})
		var dec [][]int32
		err = tr.call("huffman.decode", root, req, func() error {
			for _, b := range enc {
				d, err := huffman.Decode(b)
				if err != nil {
					return err
				}
				dec = append(dec, d)
			}
			return nil
		})
		if err != nil {
			return err
		}
		for i := range padded {
			bits += 8 * float64(len(enc[i]))
			codes += float64(len(padded[i]))
			if !slices.Equal(dec[i], padded[i]) {
				r.fault("huffman round trip of level %d codes differs", i)
			}
		}
		blob := buf.Bytes()
		t0 := time.Now()
		var hd *grid.Hierarchy
		err = tr.call("core.decompress", root, req, func() (err error) {
			hd, err = core.DecompressWorkers(blob, 1)
			return err
		})
		if err != nil {
			return err
		}
		dCore := time.Since(t0)
		if worst, err := in.ref.checkHierarchy(hd); err != nil || worst > in.eb+in.ref.slack(in.eb) {
			r.fault("probe sz3mr decode: worst %.6g, eb %.6g, %v", worst, in.eb, err)
		}
		dCodec, err := decodeStreams(r, root, req, "sz3", blob, nil)
		if err != nil {
			return err
		}
		assemble = append(assemble, float64((dCore-dCodec).Nanoseconds())/1e6)
		tr.end(root)
	}
	r.setLayer("core.assemble_ms", "ms", median(assemble))
	r.setLayer("huffman.bits_per_code", "bits", bits/codes)
	return nil
}

// decodeStreams decodes every stream of a container with its codec,
// located through the reader's index, inside one span named
// <codec>.decompress. When want is non-nil it holds the expected stream
// bytes, compared before decoding.
func decodeStreams(r *run, parent int, req int64, name string, blob []byte, want [][]byte) (time.Duration, error) {
	rd, err := reader.Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		return 0, err
	}
	streams := rd.Index().Streams
	if want != nil && len(want) != len(streams) {
		r.fault("%s: %d streams in the container, %d compressed", name, len(streams), len(want))
	}
	t0 := time.Now()
	err = r.tr.call(name+".decompress", parent, req, func() error {
		for i, s := range streams {
			data := blob[s.Offset : s.Offset+s.Len]
			if want != nil && i < len(want) && !bytes.Equal(want[i], data) {
				r.fault("%s: stream %d differs from the codec's own output", name, i)
			}
			cd, ok := codec.ByID(s.Compressor)
			if !ok {
				return fmt.Errorf("stream %d: unknown codec %d", i, s.Compressor)
			}
			f, err := codec.DecompressCtx(context.Background(), cd, data)
			if err != nil {
				return err
			}
			if int64(f.Bytes()) != s.RawLen {
				r.fault("%s: stream %d decoded to %d bytes, index says %d", name, i, f.Bytes(), s.RawLen)
			}
		}
		return nil
	})
	return time.Since(t0), err
}

// probeBlockCodecs times the SZ2 and ZFP codecs on the merged buffers and
// the post-processing stages of the refine path.
func probeBlockCodecs(r *run, in *input) error {
	tr := r.tr
	h, err := roi.Convert(in.f, roi.Options{BlockB: roiBlock, TopFrac: roiTopFrac})
	if err != nil {
		return err
	}
	var process []float64
	for _, m := range refineMethods {
		co := m.opt(in.eb)
		co.Workers = 1
		cd, ok := codec.ByName(m.name)
		if !ok {
			return fmt.Errorf("codec %s is not registered", m.name)
		}
		params := codec.Params{EB: in.eb, Alpha: 2.25, Beta: 8, SZ2BlockSize: sz2.MultiResBlockSize}
		for rep := 0; rep < probeReps; rep++ {
			req := tr.newReq()
			root := tr.begin("probe."+m.name, -1, req)
			var streams [][]byte
			err := tr.call(m.name+".compress", root, req, func() error {
				for li := range h.Levels {
					md := layout.LinearMerge(h, li)
					if md.Data == nil {
						continue
					}
					s, err := cd.Compress(md.Data, params)
					if err != nil {
						return err
					}
					streams = append(streams, s)
				}
				return nil
			})
			if err != nil {
				return err
			}
			prep, err := core.Prepare(h, co)
			if err != nil {
				return err
			}
			var intens []repro.Intensity
			err = tr.call("postproc.sample", root, req, func() (err error) {
				intens, err = prep.FindIntensities()
				return err
			})
			if err != nil {
				return err
			}
			c, err := prep.Compress()
			if err != nil {
				return err
			}
			if _, err := decodeStreams(r, root, req, m.name, c.Blob, streams); err != nil {
				return err
			}
			t0 := time.Now()
			plain, err := core.DecompressWorkers(c.Blob, 1)
			if err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := core.DecompressProcessedWorkers(c.Blob, intens, 1); err != nil {
				return err
			}
			process = append(process, float64((time.Since(t1)-t1.Sub(t0)).Nanoseconds())/1e6)
			if worst, err := in.ref.checkHierarchy(plain); err != nil || worst > in.eb+in.ref.slack(in.eb) {
				r.fault("probe %s decode: worst %.6g, eb %.6g, %v", m.name, worst, in.eb, err)
			}
			tr.end(root)
		}
	}
	r.setLayer("postproc.process_ms", "ms", median(process))
	return nil
}

// probeRequests sends a few traced requests of every class: a level-0
// read, slices along each axis and one ingest under an id nothing reads.
// It returns the number of reads sent.
func probeRequests(r *run, e *serveEnv, in *input) float64 {
	cl := newClient()
	defer cl.tp.CloseIdleConnections()
	var body bytes.Buffer
	if _, err := in.f.WriteTo(&body); err != nil {
		r.fault("probe ingest body: %v", err)
		return 0
	}
	ops := []servingOp{{kind: opIngest, id: "probe-ingest"}}
	for rep := 0; rep < probeReps; rep++ {
		ops = append(ops, servingOp{kind: opLevel, id: e.ids[0]})
		for a := 0; a < 3; a++ {
			ops = append(ops, servingOp{kind: opSlice, id: e.ids[0], axis: a, k: (rep*37 + a*11) % r.cfg.size})
		}
	}
	reads := 0.0
	for _, op := range ops {
		method, data := http.MethodGet, []byte(nil)
		if op.kind == opIngest {
			method, data = http.MethodPut, body.Bytes()
		} else {
			reads++
		}
		req := r.tr.newReq()
		sid := r.tr.begin("client."+opNames[op.kind], -1, req)
		status, err := cl.do(method, e.target(op, in.eb), data, fmt.Sprintf("pb-%d", req))
		r.tr.end(sid)
		if err == nil && (status < 200 || status > 299) {
			err = fmt.Errorf("status %d", status)
		}
		if err != nil {
			r.fault("probe %s: %v", opNames[op.kind], err)
		}
	}
	return reads
}

// probeReader reads in-process through the reader at the workload's cache
// state (warm when the server's budget holds every container, cold
// otherwise), plus cold reads for the stream-read stage, then times the
// response encoding, the ingest compression and the store install.
func probeReader(r *run, e *serveEnv, in *input) error {
	tr := r.tr
	n := r.cfg.size
	id := e.ids[0]
	path := filepath.Join(e.dir, id+".mrw")
	// A zero budget disables caching; a reader opened without a cache
	// would get a private one and turn warm after its first read.
	noCache := cache.New(0, 1)
	warmState := e.budget >= workingSet(n, len(e.ids))
	c := noCache
	if warmState {
		c = cache.New(e.budget, 4)
	}
	fr, err := reader.OpenFile(path, reader.WithCache(c), reader.WithCacheKey(id))
	if err != nil {
		return err
	}
	defer fr.Close()
	cold, err := reader.OpenFile(path, reader.WithCache(noCache))
	if err != nil {
		return err
	}
	defer cold.Close()
	if warmState {
		if _, err := fr.ReadLevel(0); err != nil {
			return err
		}
	}
	col := obs.NewCollector(64)
	traced := func(name string, fn func(ctx context.Context) error) error {
		req := tr.newReq()
		sid := tr.begin(name, -1, req)
		ctx, t := col.StartTrace(context.Background(), fmt.Sprintf("pb-%d", req))
		err := fn(ctx)
		col.Finish(t)
		tr.end(sid)
		for _, snap := range col.Traces(1) {
			importTrace(tr, snap, sid, req)
		}
		return err
	}
	for rep := 0; rep < probeReps; rep++ {
		if err := traced("reader.read_level", func(ctx context.Context) error {
			_, err := fr.ReadLevelCtx(ctx, 0)
			return err
		}); err != nil {
			return err
		}
		if err := traced("reader.read_slice", func(ctx context.Context) error {
			_, err := fr.ReadSliceCtx(ctx, reader.Axis(rep%3), (rep*41)%n, 0)
			return err
		}); err != nil {
			return err
		}
		if err := traced("reader.read_level_cold", func(ctx context.Context) error {
			_, err := cold.ReadLevelCtx(ctx, 0)
			return err
		}); err != nil {
			return err
		}
	}
	lf, err := fr.ReadLevel(0)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	for rep := 0; rep < probeReps; rep++ {
		err := tr.call("field.encode", -1, tr.newReq(), func() error {
			_, err := lf.WriteTo(io.Discard)
			return err
		})
		if err != nil {
			return err
		}
		buf.Reset()
		err = tr.call("repro.compress_to", -1, tr.newReq(), func() error {
			_, err := repro.CompressTo(in.f, reduceOptions(in), &buf)
			return err
		})
		if err != nil {
			return err
		}
		err = tr.call("store.install", -1, tr.newReq(), func() error {
			return e.st.Install(context.Background(), "probe-install.mrw", func(w io.Writer) error {
				_, err := w.Write(buf.Bytes())
				return err
			})
		})
		if err != nil {
			return err
		}
	}
	return os.Remove(filepath.Join(e.dir, "probe-install.mrw"))
}

// setSpanLayers turns the recorded spans into per-layer metrics: the
// median self or total time per call of each layer's span name.
func setSpanLayers(r *run) {
	tr := r.tr
	self, total := tr.selfTimes(), tr.durations()
	pick := func(metric string, xs []float64) {
		if len(xs) == 0 {
			r.fault("per-layer metric %s has no samples", metric)
			return
		}
		r.setLayer(metric, "ms", median(xs))
	}
	for metric, spanName := range map[string]string{
		"roi.convert_ms":        "roi.convert",
		"core.prepare_ms":       "core.prepare",
		"core.compress_ms":      "core.compress",
		"serve.unattributed_ms": "obs.serve:level",
		"reader.stream_read_ms": "obs.stream_read",
		"postproc.sample_ms":    "postproc.sample",
		"repro.compress_to_ms":  "repro.compress_to",
		"store.install_ms":      "store.install",
		"field.encode_ms":       "field.encode",
		"reader.read_level_ms":  "reader.read_level",
		"reader.read_slice_ms":  "reader.read_slice",
		"core.decompress_ms":    "core.decompress",
		"sz3.predict_ms":        "sz3.predict",
		"huffman.encode_ms":     "huffman.encode",
		"huffman.decode_ms":     "huffman.decode",
		"sz3.decompress_ms":     "sz3.decompress",
		"sz2.decompress_ms":     "sz2.decompress",
		"zfp.decompress_ms":     "zfp.decompress",
		"sz2.compress_ms":       "sz2.compress",
		"zfp.compress_ms":       "zfp.compress",
	} {
		if metric == "serve.unattributed_ms" {
			pick(metric, self[spanName])
		} else {
			pick(metric, total[spanName])
		}
	}
	for _, ep := range []string{"level", "slice", "ingest"} {
		pick("serve.handler_"+ep+"_ms", total["obs.serve:"+ep])
	}
	// http.overhead_ms pairs each client level request with the server's
	// root span of the same request.
	var overhead []float64
	rootOf := map[int]float64{}
	for _, s := range tr.spans {
		if s.Name == "obs.serve:level" && s.Parent >= 0 {
			rootOf[s.Parent] = float64(s.EndNs-s.StartNs) / 1e6
		}
	}
	for i, s := range tr.spans {
		if d, ok := rootOf[i]; ok && strings.HasPrefix(s.Name, "client.") {
			overhead = append(overhead, float64(s.EndNs-s.StartNs)/1e6-d)
		}
	}
	pick("http.overhead_ms", overhead)
	r.setLayer("trace.overhead_ms", "ms", tr.overheadMs)
}
