package cca

import (
	"testing"
	"testing/quick"
)

func TestMaxFilterTracksMax(t *testing.T) {
	f := &maxFilter{window: 10}
	f.Update(0, 100)
	if f.Get() != 100 {
		t.Fatalf("got %d", f.Get())
	}
	f.Update(1, 50) // lower sample doesn't displace max
	if f.Get() != 100 {
		t.Fatalf("got %d", f.Get())
	}
	f.Update(2, 200)
	if f.Get() != 200 {
		t.Fatalf("got %d", f.Get())
	}
}

func TestMaxFilterExpiry(t *testing.T) {
	f := &maxFilter{window: 10}
	f.Update(0, 1000)
	for i := int64(1); i <= 30; i++ {
		f.Update(i, 100)
	}
	if f.Get() != 100 {
		t.Fatalf("stale max survived: %d", f.Get())
	}
}

func TestMaxFilterRunnerUpPromotion(t *testing.T) {
	f := &maxFilter{window: 10}
	f.Update(0, 1000)
	f.Update(3, 800)
	f.Update(6, 600)
	// At t=11 the 1000 sample is stale; 800 (t=3) should take over.
	got := f.Update(11, 100)
	if got != 800 {
		t.Fatalf("runner-up not promoted: %d", got)
	}
}

func TestMaxFilterNeverBelowLatest(t *testing.T) {
	// Property: after Update(t,v), Get() >= v (the estimate can never be
	// below the newest evidence).
	f := func(vals []uint32) bool {
		mf := &maxFilter{window: 10}
		for i, v := range vals {
			mf.Update(int64(i), int64(v))
			if mf.Get() < int64(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxFilterWindowBound(t *testing.T) {
	// Property: the estimate always equals some sample seen within the
	// window (here: never exceeds the max of the last window+1 samples).
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		const w = 5
		mf := &maxFilter{window: w}
		for i, v := range vals {
			mf.Update(int64(i), int64(v))
			lo := i - w
			if lo < 0 {
				lo = 0
			}
			windowMax := int64(0)
			for j := lo; j <= i; j++ {
				if int64(vals[j]) > windowMax {
					windowMax = int64(vals[j])
				}
			}
			if mf.Get() > windowMax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
