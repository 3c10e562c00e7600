package resources

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCores(t *testing.T) {
	v := Cores(4, 16384, 375)
	if v.CPUMilli != 4000 || v.MemoryMB != 16384 || v.SSDGB != 375 {
		t.Fatalf("Cores(4,16384,375) = %+v", v)
	}
}

func TestAddSubInverse(t *testing.T) {
	f := func(a, b, c, d, e, g int32) bool {
		v := Vector{int64(a), int64(b), int64(c)}
		w := Vector{int64(d), int64(e), int64(g)}
		return v.Add(w).Sub(w) == v && v.Sub(w).Add(w) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddCommutative(t *testing.T) {
	f := func(a, b, c, d, e, g int32) bool {
		v := Vector{int64(a), int64(b), int64(c)}
		w := Vector{int64(d), int64(e), int64(g)}
		return v.Add(w) == w.Add(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFits(t *testing.T) {
	host := Cores(32, 131072, 750)
	if !Cores(4, 16384, 0).Fits(host) {
		t.Error("4-core VM should fit a 32-core host")
	}
	if Cores(33, 1, 0).Fits(host) {
		t.Error("33-core VM must not fit a 32-core host")
	}
	if Cores(1, 131073, 0).Fits(host) {
		t.Error("memory overflow must not fit")
	}
	if Cores(1, 1, 751).Fits(host) {
		t.Error("SSD overflow must not fit")
	}
	if !(Vector{}).Fits(Vector{}) {
		t.Error("zero fits zero")
	}
}

func TestFitsImpliesNonNegativeRemainder(t *testing.T) {
	f := func(a, b, c, d, e, g uint16) bool {
		v := Vector{int64(a), int64(b), int64(c)}
		w := Vector{int64(d), int64(e), int64(g)}
		if v.Fits(w) {
			return w.Sub(v).NonNegative()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsZero(t *testing.T) {
	if !(Vector{}).IsZero() {
		t.Error("zero vector must report IsZero")
	}
	if (Vector{CPUMilli: 1}).IsZero() {
		t.Error("nonzero CPU must not report IsZero")
	}
}

func TestScale(t *testing.T) {
	v := Cores(10, 1000, 100)
	half := v.Scale(0.5)
	if half.CPUMilli != 5000 || half.MemoryMB != 500 || half.SSDGB != 50 {
		t.Fatalf("Scale(0.5) = %+v", half)
	}
	if !v.Scale(0).IsZero() {
		t.Error("Scale(0) must be zero")
	}
}

func TestUtilization(t *testing.T) {
	cap := Cores(10, 1000, 0)
	used := Cores(5, 250, 0)
	cpu, mem, ssd := Utilization(used, cap)
	if math.Abs(cpu-0.5) > 1e-12 || math.Abs(mem-0.25) > 1e-12 || ssd != 0 {
		t.Fatalf("Utilization = %v %v %v", cpu, mem, ssd)
	}
	if got := MaxUtilization(used, cap); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("MaxUtilization = %v, want 0.5", got)
	}
}

func TestDominantShare(t *testing.T) {
	cap := Cores(10, 1000, 100)
	v := Cores(1, 900, 10)
	if got := DominantShare(v, cap); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("DominantShare = %v, want 0.9", got)
	}
	if got := DominantShare(Vector{}, cap); got != 0 {
		t.Fatalf("DominantShare(zero) = %v, want 0", got)
	}
	if got := DominantShare(v, Vector{}); got != 0 {
		t.Fatalf("DominantShare with zero capacity = %v, want 0", got)
	}
}

func TestImbalance(t *testing.T) {
	cap := Cores(10, 1000, 0)
	// Proportional free shape: no imbalance.
	if got := Imbalance(Cores(5, 500, 0), cap); math.Abs(got) > 1e-12 {
		t.Fatalf("balanced Imbalance = %v, want 0", got)
	}
	// Free memory but no free CPU: fully stranded shape.
	if got := Imbalance(Vector{CPUMilli: 0, MemoryMB: 1000}, cap); math.Abs(got-1) > 1e-12 {
		t.Fatalf("stranded Imbalance = %v, want 1", got)
	}
}

func TestImbalanceRange(t *testing.T) {
	cap := Cores(64, 262144, 0)
	f := func(c, m uint32) bool {
		free := Vector{CPUMilli: int64(c) % (cap.CPUMilli + 1), MemoryMB: int64(m) % (cap.MemoryMB + 1)}
		im := Imbalance(free, cap)
		return im >= 0 && im <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// sliceImbalance is the former slice-based Imbalance, kept as the
// reference the allocation-free form must match bit for bit.
func sliceImbalance(v, cap Vector) float64 {
	var fr []float64
	if cap.CPUMilli > 0 {
		fr = append(fr, float64(v.CPUMilli)/float64(cap.CPUMilli))
	}
	if cap.MemoryMB > 0 {
		fr = append(fr, float64(v.MemoryMB)/float64(cap.MemoryMB))
	}
	if len(fr) < 2 {
		return 0
	}
	lo, hi := fr[0], fr[0]
	for _, f := range fr[1:] {
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	return hi - lo
}

// TestImbalanceMatchesSliceForm checks the two-ratio Imbalance against the
// slice-based reference bit for bit, over a grid that includes zero and
// negative capacities, empty vectors and over-full (negative free) vectors.
func TestImbalanceMatchesSliceForm(t *testing.T) {
	caps := []int64{-1000, 0, 1, 3, 1000, 7000, 64000, 262144}
	vals := []int64{-262144, -7001, -1, 0, 1, 2, 333, 999, 1000, 4096, 64000, 262144, 1 << 40}
	for _, cc := range caps {
		for _, cm := range caps {
			cap := Vector{CPUMilli: cc, MemoryMB: cm, SSDGB: 375}
			for _, vc := range vals {
				for _, vm := range vals {
					v := Vector{CPUMilli: vc, MemoryMB: vm}
					got, want := Imbalance(v, cap), sliceImbalance(v, cap)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("Imbalance(%+v, %+v) = %v (%#x), slice form %v (%#x)",
							v, cap, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
	}
	if got := Imbalance(Vector{}, Vector{}); got != 0 {
		t.Fatalf("Imbalance(empty, empty) = %v, want 0", got)
	}
}

func TestString(t *testing.T) {
	got := Cores(2, 8192, 375).String()
	want := "cpu=2000m mem=8192MB ssd=375GB"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
