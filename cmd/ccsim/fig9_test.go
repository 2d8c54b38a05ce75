package main

import (
	"bytes"
	"strings"
	"testing"
)

func sampleFig9() *Fig9 {
	f := &Fig9{Title: "test", Cores: []int{1, 3, 7, 15}}
	f.Add(Series{Name: "original", Times: map[int]float64{1: 100, 3: 42.5, 7: 37.2, 15: 40}})
	f.Add(Series{Name: "v1", Times: map[int]float64{1: 55, 3: 30, 7: 22, 15: 21}})
	f.Add(Series{Name: "v5", Times: map[int]float64{1: 54, 3: 28, 7: 17, 15: 12}})
	return f
}

func TestSeriesBest(t *testing.T) {
	s := Series{Name: "x", Times: map[int]float64{1: 10, 3: 5, 7: 5, 15: 8}}
	c, v := s.Best()
	if c != 3 || v != 5 {
		t.Errorf("Best = (%d, %v), want (3, 5) (tie broken by lower cores)", c, v)
	}
	if _, ok := s.At(99); ok {
		t.Error("At(99) reported present")
	}
}

func TestWriteTable(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleFig9().WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"original", "v1", "v5", "1 c/n", "15 c/n", "100.00", "12.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleFig9().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if lines[0] != "variant,cores_1,cores_3,cores_7,cores_15" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[3], "v5,54.0000") {
		t.Errorf("v5 row = %q", lines[3])
	}
}

func TestCSVMissingPointsEmpty(t *testing.T) {
	f := &Fig9{Cores: []int{1, 3}}
	f.Add(Series{Name: "x", Times: map[int]float64{1: 2}})
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "x,2.0000,\n") {
		t.Errorf("missing point not empty: %q", buf.String())
	}
}

func TestDeriveClaims(t *testing.T) {
	c, err := DeriveClaims(sampleFig9(), 15)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.OriginalSpeedup3; got < 2.35-0.01 || got > 2.35+0.01 {
		t.Errorf("OriginalSpeedup3 = %v", got)
	}
	if c.OriginalBestCores != 7 {
		t.Errorf("OriginalBestCores = %d", c.OriginalBestCores)
	}
	if got := c.OriginalBestSpeedup; got < 2.68 || got > 2.69 {
		t.Errorf("OriginalBestSpeedup = %v", got)
	}
	if c.BestVariant != "v5" {
		t.Errorf("BestVariant = %s", c.BestVariant)
	}
	if got := c.BestOverOriginal; got < 3.09 || got > 3.11 {
		t.Errorf("BestOverOriginal = %v", got)
	}
	if got := c.SpreadAtMax; got < 1.74 || got > 1.76 {
		t.Errorf("SpreadAtMax = %v", got)
	}
	if c.SlowestVariantMax != "v1" {
		t.Errorf("SlowestVariantMax = %s", c.SlowestVariantMax)
	}
	if !strings.Contains(c.String(), "v5") {
		t.Error("claims string missing best variant")
	}
}

func TestDeriveClaimsRequiresOriginal(t *testing.T) {
	f := &Fig9{}
	f.Add(Series{Name: "v1", Times: map[int]float64{1: 1}})
	if _, err := DeriveClaims(f, 1); err == nil {
		t.Error("missing original accepted")
	}
}

func TestGet(t *testing.T) {
	f := sampleFig9()
	if s, ok := f.Get("v1"); !ok || s.Name != "v1" {
		t.Error("Get failed")
	}
	if _, ok := f.Get("nope"); ok {
		t.Error("Get of absent series succeeded")
	}
}
