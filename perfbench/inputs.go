package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/synth"
)

// The workloads' inputs: uniform synthetic fields of the three kinds the
// paper's SZ3MR tables lead with, all derived from --seed.
var inputKinds = []synth.Dataset{synth.Nyx, synth.RT, synth.S3D}

// ROI parameters of every workload: 16³ blocks, the top half kept at full
// resolution (the paper's and mrcompress's defaults).
const (
	roiBlock   = 16
	roiTopFrac = 0.5
	// relEB scales each input's own value range into its absolute error
	// bound. The workflow's RelEB option is not used: it resolves the range
	// over the zero-filled samples of the ROI hierarchy (see README).
	relEB = 1e-3
)

// input is one generated field with the benchmark's own reference for it.
type input struct {
	name string
	f    *field.Field
	ref  *reference
	eb   float64
}

// makeInput generates input i of a run. The generator's own seed is fixed
// per kind; the run's seed picks one of the 8 mirror images of the field
// (a flip or not along each axis). A mirror image keeps the values and the
// block ranges, so the ROI and the error bound are the same for every
// seed and ratio, PSNR and cost vary little, while the block order, the
// merged buffers and so the container bytes differ.
func makeInput(i int, n int, seed int64) *input {
	kind := inputKinds[i]
	f := synth.Generate(kind, n, int64(1000+i))
	flips := rand.New(rand.NewSource(seed*1000 + int64(i))).Intn(8)
	f = mirror(f, flips)
	ref := newReference(f, roiBlock, roiTopFrac)
	return &input{name: fmt.Sprintf("%s/m%d", kind, flips), f: f, ref: ref, eb: relEB * ref.rng}
}

// mirror returns the cubic field f reversed along x, y and z where bits
// 0, 1 and 2 of flips are set.
func mirror(f *field.Field, flips int) *field.Field {
	n := f.Nx
	at := func(v, axis int) int {
		if flips>>axis&1 == 1 {
			return n - 1 - v
		}
		return v
	}
	out := field.New(n, n, n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			src := f.Data[n*(at(y, 1)+n*at(z, 2)):]
			dst := out.Data[n*(y+n*z):]
			for x := 0; x < n; x++ {
				dst[x] = src[at(x, 0)]
			}
		}
	}
	return out
}

// reference is the benchmark's independent ROI hierarchy of an input:
// per-block value ranges, the top fraction of blocks kept raw, every other
// block as its own 2×2×2 means. It shares no code with internal/roi.
type reference struct {
	n, b   int
	nb     int       // blocks per axis
	fine   []bool    // per block (x fastest): kept at full resolution
	l0     []float64 // the input itself
	l1     []float64 // (n/2)³ 2×2×2 means
	rng    float64   // value range of the input
	maxAbs float64
}

func newReference(f *field.Field, b int, top float64) *reference {
	n := f.Nx
	nb := n / b
	ref := &reference{n: n, b: b, nb: nb, l0: f.Data}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range f.Data {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
		ref.maxAbs = math.Max(ref.maxAbs, math.Abs(v))
	}
	ref.rng = hi - lo
	ranges := make([]float64, nb*nb*nb)
	for bi := range ranges {
		bx, by, bz := bi%nb, bi/nb%nb, bi/(nb*nb)
		mn, mx := math.Inf(1), math.Inf(-1)
		for z := bz * b; z < (bz+1)*b; z++ {
			for y := by * b; y < (by+1)*b; y++ {
				row := f.Data[n*(y+n*z):]
				for x := bx * b; x < (bx+1)*b; x++ {
					mn, mx = math.Min(mn, row[x]), math.Max(mx, row[x])
				}
			}
		}
		ranges[bi] = mx - mn
	}
	order := make([]int, len(ranges))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return ranges[order[i]] > ranges[order[j]] })
	ref.fine = make([]bool, len(ranges))
	for _, bi := range order[:int(top*float64(len(ranges))+0.5)] {
		ref.fine[bi] = true
	}
	h := n / 2
	ref.l1 = make([]float64, h*h*h)
	for z := 0; z < h; z++ {
		for y := 0; y < h; y++ {
			for x := 0; x < h; x++ {
				s := 0.0
				for d := 0; d < 8; d++ {
					s += f.Data[(2*x+d&1)+n*((2*y+d>>1&1)+n*(2*z+d>>2))]
				}
				ref.l1[x+h*(y+h*z)] = s / 8
			}
		}
	}
	return ref
}

// slack absorbs the rounding of means computed in a different order.
func (ref *reference) slack(eb float64) float64 { return 1e-9*eb + 1e-12*ref.maxAbs }

// levelOwns reports whether level l (0 or 1) owns block bi.
func (ref *reference) levelOwns(l, bi int) bool { return ref.fine[bi] == (l == 0) }

// maxLevelErr returns the largest |got − reference| over the samples of
// level l's owned blocks; got is a full-domain array at that level's
// resolution.
func (ref *reference) maxLevelErr(l int, got *field.Field) (float64, error) {
	m := ref.n >> l
	if got.Nx != m || got.Ny != m || got.Nz != m {
		return 0, fmt.Errorf("level %d has dims %dx%dx%d, want %d³", l, got.Nx, got.Ny, got.Nz, m)
	}
	want := ref.l0
	if l == 1 {
		want = ref.l1
	}
	u := ref.b >> l
	worst := 0.0
	for bi := 0; bi < ref.nb*ref.nb*ref.nb; bi++ {
		if !ref.levelOwns(l, bi) {
			continue
		}
		bx, by, bz := bi%ref.nb, bi/ref.nb%ref.nb, bi/(ref.nb*ref.nb)
		for z := bz * u; z < (bz+1)*u; z++ {
			for y := by * u; y < (by+1)*u; y++ {
				for x := bx * u; x < (bx+1)*u; x++ {
					i := x + m*(y+m*z)
					d := math.Abs(got.Data[i] - want[i])
					if !(d <= worst) { // NaN counts as the worst error
						worst = d
						if math.IsNaN(d) {
							worst = math.Inf(1)
						}
					}
				}
			}
		}
	}
	return worst, nil
}

// checkHierarchy checks a decoded hierarchy against the reference: the
// same two levels, the same block ownership, and every owned sample
// within bound of the reference. It returns the worst error.
func (ref *reference) checkHierarchy(h *grid.Hierarchy) (float64, error) {
	if h.Nx != ref.n || h.Ny != ref.n || h.Nz != ref.n || h.BlockB != ref.b || len(h.Levels) != 2 {
		return 0, fmt.Errorf("hierarchy %dx%dx%d B=%d with %d levels, want %d³ B=%d with 2",
			h.Nx, h.Ny, h.Nz, h.BlockB, len(h.Levels), ref.n, ref.b)
	}
	worst := 0.0
	for l := 0; l < 2; l++ {
		for bi, own := range h.Levels[l].Owned {
			if own != ref.levelOwns(l, bi) {
				return 0, fmt.Errorf("level %d ownership of block %d differs from the reference ROI", l, bi)
			}
		}
		e, err := ref.maxLevelErr(l, h.Levels[l].Data)
		if err != nil {
			return 0, err
		}
		worst = math.Max(worst, e)
	}
	return worst, nil
}

// psnr is 20·log10(range) − 10·log10(MSE) of recon against the input.
func (ref *reference) psnr(recon *field.Field) float64 {
	s := 0.0
	for i, v := range ref.l0 {
		d := recon.Data[i] - v
		s += d * d
	}
	mse := s / float64(len(ref.l0))
	return 20*math.Log10(ref.rng) - 10*math.Log10(mse)
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p := q * float64(len(s)-1)
	i := int(p)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (p-float64(i))*(s[i+1]-s[i])
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

const mb = 1 << 20
