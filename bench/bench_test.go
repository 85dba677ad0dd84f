package main

import (
	"bytes"
	"os"
	"regexp"
	"sort"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesTables pins BENCHMARK.json to the tables the
// benchmark reports from, and the tables to the manifest's limits.
func TestManifestMatchesTables(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifestJSON()) {
		t.Error("BENCHMARK.json differs from the declared workloads and metrics; regenerate it with: go run ./bench -manifest > BENCHMARK.json")
	}
	if n := len(specs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("metric %q: unit %q does not match %v", name, unit, unitRE)
		}
	}
	for _, s := range specs {
		check(s.name, "")
		if len(s.why) == 0 || len(s.why) > 200 {
			t.Errorf("workload %q: why has %d characters, want 1..200", s.name, len(s.why))
		}
	}
	var setupBound, maxBound float64
	for _, d := range endToEnd {
		check(d.name, d.unit)
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.name, d.bound)
		}
		if d.name == "setup_s" {
			setupBound = d.bound
			if d.unit != "s" || d.better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
		if d.bound > maxBound {
			maxBound = d.bound
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %g must be present and the largest (max %g)", setupBound, maxBound)
	}
	for _, d := range perLayer {
		check(d.name, d.unit)
	}
}

func keys(m map[string]metricVal) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func names(ds []decl) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}

// TestSmokeEveryWorkload runs each workload's smoke variant, traced, in
// this process and checks that it passes its own output checks and
// reports exactly the declared metrics, each with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	out := t.TempDir()
	for i := range specs {
		sp := &specs[i]
		r := &run{spec: sp, seed: 7, seconds: smokeSeconds, smoke: true, traced: true}
		if code := r.execute(out); code != 0 {
			t.Errorf("%s: exit code %d, failures %v, invalid %v", sp.name, code, r.res.Failures, r.res.Invalid)
			continue
		}
		for _, c := range []struct {
			what string
			got  map[string]metricVal
			want []decl
		}{{"end-to-end", r.res.EndToEnd, endToEnd}, {"per-layer", r.res.PerLayer, perLayer}} {
			if g, w := keys(c.got), names(c.want); !equalStrings(g, w) {
				t.Errorf("%s: %s metrics are %v, want %v", sp.name, c.what, g, w)
			}
			for name, m := range c.got {
				if m.Unit != unitOf(name) {
					t.Errorf("%s: %s has unit %q, declared %q", sp.name, name, m.Unit, unitOf(name))
				}
			}
		}
		for name, m := range r.res.EndToEnd {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %g, must be positive", sp.name, name, m.Value)
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
