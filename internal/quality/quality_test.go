package quality

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOverlap(t *testing.T) {
	if Overlap([]int{1, 2, 3}, []int{2, 3, 4}) != 2 {
		t.Fatal("overlap wrong")
	}
	if Overlap(nil, []int{1}) != 0 || Overlap([]int{1}, nil) != 0 {
		t.Fatal("empty overlap wrong")
	}
	// Duplicates in b must not double count.
	if Overlap([]int{1, 2}, []int{1, 1, 1}) != 1 {
		t.Fatal("duplicate counting broken")
	}
}

func TestPrecisionRecallF1(t *testing.T) {
	det := []int{1, 2, 3, 4}
	truth := []int{3, 4, 5, 6, 7, 8}
	if p := Precision(det, truth); p != 0.5 {
		t.Fatalf("precision %f", p)
	}
	if r := Recall(det, truth); math.Abs(r-1.0/3) > 1e-12 {
		t.Fatalf("recall %f", r)
	}
	want := 2 * 0.5 * (1.0 / 3) / (0.5 + 1.0/3)
	if f := F1(det, truth); math.Abs(f-want) > 1e-12 {
		t.Fatalf("f1 %f, want %f", f, want)
	}
	if F1(nil, truth) != 0 || F1(det, nil) != 0 {
		t.Fatal("degenerate F1 should be 0")
	}
	if F1(truth, truth) != 1 {
		t.Fatal("perfect match must be 1")
	}
}

func TestF1Bounds(t *testing.T) {
	f := func(a, b []uint8) bool {
		det := make([]int, len(a))
		for i, x := range a {
			det[i] = int(x % 32)
		}
		truth := make([]int, len(b))
		for i, x := range b {
			truth[i] = int(x % 32)
		}
		v := F1(det, truth)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBestF1(t *testing.T) {
	truths := [][]int{{1, 2, 3}, {4, 5, 6}, {1, 2, 3, 4}}
	f, idx := BestF1([]int{1, 2, 3}, truths)
	if idx != 0 || f != 1 {
		t.Fatalf("best = %f at %d", f, idx)
	}
	f, idx = BestF1([]int{9, 10}, truths)
	if f != 0 || idx != -1 {
		t.Fatalf("no-match best = %f at %d", f, idx)
	}
	if f, idx := BestF1([]int{1}, nil); f != 0 || idx != -1 {
		t.Fatal("empty truths")
	}
}

func TestKeptPercent(t *testing.T) {
	if KeptPercent(14, 73) < 19 || KeptPercent(14, 73) > 20 {
		t.Fatalf("case-study percentage = %f, want ~19.2", KeptPercent(14, 73))
	}
	if KeptPercent(5, 0) != 0 {
		t.Fatal("division by zero")
	}
	if KeptPercent(10, 10) != 100 {
		t.Fatal("identity percentage")
	}
}

func TestMeanMedian(t *testing.T) {
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Fatal("empty aggregates")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
	if Median([]float64{5, 1, 3}) != 3 {
		t.Fatal("odd median")
	}
	if Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("even median")
	}
	// Median must not mutate its input.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 {
		t.Fatal("median sorted the caller's slice")
	}
}
