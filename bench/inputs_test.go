package main

import "testing"

func TestInputsFollowSeed(t *testing.T) {
	for name, gen := range map[string]func(int64) ([]input, error){"hot set": hotSet, "cold corpus": coldCorpus} {
		a, err := gen(1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := gen(1)
		c, _ := gen(2)
		for i := range a {
			if a[i].fp != b[i].fp {
				t.Errorf("%s: %s differs between two draws of seed 1", name, a[i].name)
			}
			if changed := a[i].fp != c[i].fp; changed != a[i].random() {
				t.Errorf("%s: %s changed with the seed: %v, want %v", name, a[i].name, changed, a[i].random())
			}
		}
	}
	if freshInput(1, 0, 3).fp != freshInput(1, 0, 3).fp {
		t.Error("a never-seen graph differs between two draws of seed 1")
	}
	if freshInput(1, 0, 3).fp == freshInput(2, 0, 3).fp || freshInput(1, 0, 3).fp == freshInput(1, 1, 3).fp {
		t.Error("never-seen graphs repeat across seeds or clients")
	}
}
