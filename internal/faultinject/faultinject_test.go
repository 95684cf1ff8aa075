package faultinject

import "testing"

func TestHitConsumesCharges(t *testing.T) {
	defer Reset()
	Set("p", 2, 7)
	if !Armed("p") {
		t.Fatal("point not armed after Set")
	}
	for i := 0; i < 2; i++ {
		arg, fired := Hit("p")
		if !fired || arg != 7 {
			t.Fatalf("hit %d: fired=%v arg=%d, want fired arg=7", i, fired, arg)
		}
	}
	if _, fired := Hit("p"); fired {
		t.Fatal("point fired beyond its charges")
	}
	if Armed("p") {
		t.Fatal("point still armed after charges spent")
	}
}

func TestSetZeroDisarms(t *testing.T) {
	defer Reset()
	Set("p", 3, 0)
	Set("p", 0, 0)
	if Armed("p") {
		t.Fatal("Set(0) did not disarm")
	}
}

func TestUnknownPointNeverFires(t *testing.T) {
	defer Reset()
	if _, fired := Hit("never-set"); fired {
		t.Fatal("unarmed point fired")
	}
	Set("other", 1, 0)
	if _, fired := Hit("never-set"); fired {
		t.Fatal("unarmed point fired while another was armed")
	}
}
