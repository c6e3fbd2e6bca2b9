package main

import (
	"encoding/json"
	"os"
	"testing"

	patree "github.com/patree/patree"
)

// BENCHMARK.json declares the metrics and workloads this program
// reports; the two must not drift apart.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, program %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
}

func TestValueCheck(t *testing.T) {
	var v [valueSize]byte
	fillValue(v[:], 9, 42, 3)
	if ver, err := checkValue(v[:], 9, 42); err != nil || ver != 3 {
		t.Fatalf("checkValue = %d, %v; want 3, nil", ver, err)
	}
	if _, err := checkValue(v[:], 9, 43); err == nil {
		t.Error("a value of key 42 passed as key 43's")
	}
	if _, err := checkValue(v[:], 10, 42); err == nil {
		t.Error("a value from another seed passed")
	}
	v[valueSize-1] ^= 1
	if _, err := checkValue(v[:], 9, 42); err == nil {
		t.Error("a corrupt value passed")
	}
}

func TestVerifyAllFindsDifferences(t *testing.T) {
	m := newChurnMix(5, 0, 4)
	pairs := make([]patree.KV, 4)
	for i := range pairs {
		key := m.base + uint64(i)
		v := make([]byte, valueSize)
		fillValue(v, 5, key, 1)
		pairs[i] = patree.KV{Key: key, Value: v}
	}
	mixes := []*churnMix{m}
	if err := verifyAll(pairs, mixes); err != nil {
		t.Fatal(err)
	}
	if err := verifyAll(pairs[:3], mixes); err == nil {
		t.Error("a missing key passed")
	}
	m.vers[2] = 2
	if err := verifyAll(pairs, mixes); err == nil {
		t.Error("a stale value passed")
	}
}
