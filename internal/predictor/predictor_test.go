package predictor

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/rng"
)

func TestBimodalLearnsBias(t *testing.T) {
	b, err := NewBimodal(1024)
	if err != nil {
		t.Fatal(err)
	}
	pc := addr.Build(1, 2, 0x40)
	for i := 0; i < 10; i++ {
		b.Update(pc, false)
	}
	if b.Predict(pc) {
		t.Error("bimodal did not learn not-taken bias")
	}
	for i := 0; i < 10; i++ {
		b.Update(pc, true)
	}
	if !b.Predict(pc) {
		t.Error("bimodal did not relearn taken bias")
	}
}

func TestBimodalRejectsBadSize(t *testing.T) {
	if _, err := NewBimodal(1000); err == nil {
		t.Error("non-power-of-two accepted")
	}
	if _, err := NewBimodal(0); err == nil {
		t.Error("zero accepted")
	}
}

// loopAccuracy runs a structured loop-nest workload: an inner loop of body
// branches whose back-edge exits every `trip` iterations. The exit is
// invisible to a bimodal predictor but fully determined by global history.
func loopAccuracy(t *testing.T, d interface {
	Predict(addr.VA) bool
	Update(addr.VA, bool)
}, trip, steps int) float64 {
	t.Helper()
	body := []addr.VA{
		addr.Build(1, 2, 0x40), addr.Build(1, 2, 0x80), addr.Build(1, 2, 0xc0),
	}
	back := addr.Build(1, 2, 0x100)
	correct, total := 0, 0
	measured := steps / 2
	iter := 0
	for s := 0; s < steps; s++ {
		for _, pc := range body {
			pred := d.Predict(pc)
			if s > measured {
				total++
				if pred { // body branches always taken
					correct++
				}
			}
			d.Update(pc, true)
		}
		iter++
		taken := iter%trip != 0 // loop exit every `trip` iterations
		pred := d.Predict(back)
		if s > measured {
			total++
			if pred == taken {
				correct++
			}
		}
		d.Update(back, taken)
	}
	return float64(correct) / float64(total)
}

func TestTAGEAccuracyBeatsBimodalOnLoops(t *testing.T) {
	tg, err := NewTAGE(DefaultTAGEConfig())
	if err != nil {
		t.Fatal(err)
	}
	bm, _ := NewBimodal(8192)
	accT := loopAccuracy(t, tg, 5, 4000)
	accB := loopAccuracy(t, bm, 5, 4000)
	t.Logf("tage=%.4f bimodal=%.4f", accT, accB)
	if accT <= accB {
		t.Errorf("TAGE (%.4f) not above bimodal (%.4f) on loop exits", accT, accB)
	}
	if accT < 0.97 {
		t.Errorf("TAGE accuracy %.4f too low on fully regular loops", accT)
	}
}

func TestTAGEHandlesBiasedNoise(t *testing.T) {
	// Plain biased branches: TAGE must be at least competitive.
	tg, _ := NewTAGE(DefaultTAGEConfig())
	r := rng.New(42)
	pcs := make([]addr.VA, 64)
	bias := make([]float64, 64)
	for i := range pcs {
		pcs[i] = addr.Build(1, addr.PageNum(uint64(i/8)), addr.PageOffset(uint64(i%8)*64))
		if r.Bool(0.5) {
			bias[i] = 0.95
		} else {
			bias[i] = 0.05
		}
	}
	correct, total := 0, 0
	for s := 0; s < 40000; s++ {
		i := r.Intn(len(pcs))
		taken := r.Bool(bias[i])
		if tg.Predict(pcs[i]) == taken && s > 20000 {
			correct++
		}
		if s > 20000 {
			total++
		}
		tg.Update(pcs[i], taken)
	}
	if acc := float64(correct) / float64(total); acc < 0.90 {
		t.Errorf("TAGE biased-branch accuracy = %.4f", acc)
	}
}

func TestTAGEReset(t *testing.T) {
	tg, _ := NewTAGE(DefaultTAGEConfig())
	pc := addr.Build(1, 2, 0x40)
	for i := 0; i < 100; i++ {
		tg.Predict(pc)
		tg.Update(pc, false)
	}
	tg.Reset()
	// After reset the default (weakly-taken base) prediction returns.
	if !tg.Predict(pc) {
		t.Error("reset did not clear learned state")
	}
}

func TestTAGEStorage(t *testing.T) {
	tg, _ := NewTAGE(DefaultTAGEConfig())
	if tg.StorageBits() == 0 {
		t.Error("zero storage reported")
	}
}

func TestTAGEConfigValidation(t *testing.T) {
	bad := []TAGEConfig{
		{BaseEntries: 1000, TableEntries: 1024, HistLens: []int{8}, TagBits: 9},
		{BaseEntries: 1024, TableEntries: 1000, HistLens: []int{8}, TagBits: 9},
		{BaseEntries: 1024, TableEntries: 1024, HistLens: nil, TagBits: 9},
		{BaseEntries: 1024, TableEntries: 1024, HistLens: []int{16, 8}, TagBits: 9},
	}
	for i, c := range bad {
		if _, err := NewTAGE(c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestRASPairing(t *testing.T) {
	r := NewRAS(16)
	a := addr.Build(1, 2, 0x44)
	b := addr.Build(1, 3, 0x88)
	r.Push(a)
	r.Push(b)
	if got, ok := r.Pop(); !ok || got != b {
		t.Errorf("Pop = %v,%v want %v", got, ok, b)
	}
	if got, ok := r.Pop(); !ok || got != a {
		t.Errorf("Pop = %v,%v want %v", got, ok, a)
	}
	if _, ok := r.Pop(); ok {
		t.Error("Pop on empty stack succeeded")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(4)
	for i := 0; i < 6; i++ {
		r.Push(addr.Build(1, addr.PageNum(uint64(i)), 0))
	}
	// The newest 4 survive: 5,4,3,2.
	for want := 5; want >= 2; want-- {
		got, ok := r.Pop()
		if !ok || got != addr.Build(1, addr.PageNum(uint64(want)), 0) {
			t.Errorf("Pop = %v,%v want page %d", got, ok, want)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("a fifth Pop from a 4-entry stack succeeded")
	}
}

func TestRASReset(t *testing.T) {
	r := NewRAS(8)
	r.Push(addr.Build(1, 1, 0))
	r.Reset()
	if _, ok := r.Pop(); ok {
		t.Error("pop after reset succeeded")
	}
}

func TestITTAGEMonomorphic(t *testing.T) {
	it, err := NewITTAGE(Default64KBConfig())
	if err != nil {
		t.Fatal(err)
	}
	pc := addr.Build(1, 2, 0x40)
	tgt := addr.Build(3, 4, 0x80)
	if _, ok := it.Predict(pc); ok {
		t.Error("cold predictor predicted")
	}
	it.Update(pc, tgt)
	it.Observe(true)
	if got, ok := it.Predict(pc); !ok || got != tgt {
		t.Errorf("Predict = %v,%v", got, ok)
	}
}

func TestITTAGEPolymorphicWithHistory(t *testing.T) {
	it, _ := NewITTAGE(Default64KBConfig())
	pc := addr.Build(1, 2, 0x40)
	t1 := addr.Build(3, 4, 0x80)
	t2 := addr.Build(5, 6, 0xc0)
	// Target correlates with the preceding direction pattern: after a
	// taken-taken prefix → t1, after not-not → t2.
	correct, total := 0, 0
	r := rng.New(7)
	for i := 0; i < 8000; i++ {
		phase := r.Bool(0.5)
		var want addr.VA
		if phase {
			it.Observe(true)
			it.Observe(true)
			want = t1
		} else {
			it.Observe(false)
			it.Observe(false)
			want = t2
		}
		got, ok := it.Predict(pc)
		if i > 4000 {
			total++
			if ok && got == want {
				correct++
			}
		}
		it.Update(pc, want)
		it.Observe(true)
	}
	if acc := float64(correct) / float64(total); acc < 0.80 {
		t.Errorf("ITTAGE history-correlated accuracy = %.3f", acc)
	}
}

func TestITTAGEStorageNear64KB(t *testing.T) {
	it, _ := NewITTAGE(Default64KBConfig())
	kb := float64(it.StorageBits()) / 8 / 1024
	if kb < 40 || kb > 80 {
		t.Errorf("ITTAGE storage = %.1f KB, want ≈64", kb)
	}
}

func TestITTAGEReset(t *testing.T) {
	it, _ := NewITTAGE(Default64KBConfig())
	pc := addr.Build(1, 2, 0x40)
	it.Update(pc, addr.Build(3, 4, 0x80))
	it.Reset()
	if _, ok := it.Predict(pc); ok {
		t.Error("prediction survived reset")
	}
}
