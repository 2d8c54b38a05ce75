package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/netrun"
)

// TestShapeSpellingsValidateAlike: segment_height and write_span are
// shorthand for seg= and span= recipe terms, so a shape must be accepted
// or refused the same way however it is spelled, at every entry point
// that takes a job: Submit, the HTTP body (400), and netrun — which sees
// only recipe strings, including the canonical one the service hands it.
// A write span over fissioned writes used to be accepted in the override
// spelling and silently run at span 1.
func TestShapeSpellingsValidateAlike(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 8})
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		variant   string
		seg, span int
		flat      string // the same shape in the flat grammar
		wantErr   string // "" = valid
	}{
		{"v1", 0, 2, "seg=full,fission=writes,span=2", "requires fused writes"},
		{"v3", 0, 2, "seg=1,fission=writes,span=2", "requires fused writes"},
		{"v3", 2, 3, "seg=2,fission=writes,span=3", "requires fused writes"},
		{"v3", 0, 1, "seg=1,fission=writes,span=1", ""},
		{"v5", 0, 2, "seg=1,fission=none,span=2", ""},
		{"v4", 2, 0, "seg=2,fission=sorts", ""},
	} {
		for _, spec := range []JobSpec{
			{Preset: "water", Variant: tc.variant, SegmentHeight: tc.seg, WriteSpan: tc.span},
			{Preset: "water", Variant: tc.flat},
		} {
			name := spec.Variant
			_, recipe, err := spec.resolve()
			if (err == nil) != (tc.wantErr == "") || (err != nil && !strings.Contains(err.Error(), tc.wantErr)) {
				t.Errorf("%s seg=%d span=%d: resolve error %v, want %q", name, tc.seg, tc.span, err, tc.wantErr)
				continue
			}

			// HTTP: a refused shape is the client's error.
			body, _ := json.Marshal(spec)
			resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var reply struct {
				ID    string `json:"id"`
				Error string `json:"error"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&reply)
			resp.Body.Close()
			if tc.wantErr != "" {
				if resp.StatusCode != http.StatusBadRequest || !strings.Contains(reply.Error, tc.wantErr) {
					t.Errorf("%s seg=%d span=%d: POST /jobs = %d %q, want 400 with %q",
						name, tc.seg, tc.span, resp.StatusCode, reply.Error, tc.wantErr)
				}
				continue
			}
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("%s seg=%d span=%d: POST /jobs = %d %q, want 202", name, tc.seg, tc.span, resp.StatusCode, reply.Error)
				continue
			}
			if st := waitTerminal(t, s, reply.ID); st.State != JobDone {
				t.Errorf("%s seg=%d span=%d: job %s (%s)", name, tc.seg, tc.span, st.State, st.Error)
			}
			// What runJobNetrun would hand netrun parses back to the same shape.
			canon := recipe.MustShape().Canon()
			back, err := ccsd.VariantByName(canon)
			if err != nil || back.MustShape().Canon() != canon {
				t.Errorf("%s: canonical recipe %q does not round-trip: %v", name, canon, err)
			}
		}

		// netrun refuses the same shapes, before it opens a socket.
		if tc.wantErr != "" {
			_, err := netrun.Run(netrun.Config{Ranks: 2}, netrun.JobSpec{Preset: "water", Variant: tc.flat})
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("netrun %q: error %v, want %q", tc.flat, err, tc.wantErr)
			}
		}
	}
}

// TestOverrideShorthandMatchesRecipe: a job that sets segment_height or
// write_span is the same job as the one that spells the term in its
// variant — same plan key (so the second is a cache hit) and the same
// energy, bitwise.
func TestOverrideShorthandMatchesRecipe(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 8})
	defer s.Shutdown()
	run := func(spec JobSpec) JobStatus {
		t.Helper()
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st = waitTerminal(t, s, st.ID); st.State != JobDone {
			t.Fatalf("%+v: %s (%s)", spec, st.State, st.Error)
		}
		return st
	}
	plain := run(JobSpec{Preset: "water", Variant: "v5"})
	for _, tc := range []struct{ short, flat JobSpec }{
		{JobSpec{Preset: "water", Variant: "v5", WriteSpan: 2}, JobSpec{Preset: "water", Variant: "seg=1,fission=none,span=2"}},
		{JobSpec{Preset: "water", Variant: "v4", SegmentHeight: 2}, JobSpec{Preset: "water", Variant: "seg=2,fission=sorts"}},
	} {
		a, b := run(tc.short), run(tc.flat)
		if a.PlanKey != b.PlanKey {
			t.Errorf("%+v and %+v: plan keys %s / %s differ", tc.short, tc.flat, a.PlanKey, b.PlanKey)
		}
		if a.PlanKey == plain.PlanKey {
			t.Errorf("%+v: override did not reach the plan key", tc.short)
		}
		if a.Result.CacheHit || !b.Result.CacheHit {
			t.Errorf("%+v then %+v: cache hits %v / %v, want miss then hit", tc.short, tc.flat, a.Result.CacheHit, b.Result.CacheHit)
		}
		if a.Result.Energy != b.Result.Energy {
			t.Errorf("%+v: energy %.15f, %+v: %.15f (must be bitwise)", tc.short, a.Result.Energy, tc.flat, b.Result.Energy)
		}
		if d := ccsd.EnergyRelDiff(a.Result.Energy, plain.Result.Energy); d > ccsd.EnergyTol {
			t.Errorf("%+v: energy moved by a relative %.3e", tc.short, d)
		}
		if a.Result.Tasks == plain.Result.Tasks {
			t.Errorf("%+v: ran the plain v5 graph (%d tasks)", tc.short, a.Result.Tasks)
		}
	}
}

// TestRecoveredUnresolvableShapeFails: journal recovery validates through
// the same resolver as Submit, so a queued record whose shape no longer
// resolves — here one an earlier version accepted — becomes a failed job,
// not a panic inside Compile on an executor goroutine.
func TestRecoveredUnresolvableShapeFails(t *testing.T) {
	dir := t.TempDir()
	jl, _, err := OpenJournal(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	stale := JobSpec{Preset: "water", Variant: "v3", WriteSpan: 2}
	fine := JobSpec{Preset: "water", Variant: "v4", WriteSpan: 2}
	for _, rec := range []Record{
		{Op: OpBoot, Epoch: 1},
		{Op: OpSubmit, ID: "j1-000001", Spec: &stale, SubmittedNs: time.Now().UnixNano()},
		{Op: OpSubmit, ID: "j1-000002", Spec: &fine, SubmittedNs: time.Now().UnixNano()},
	} {
		if err := jl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()

	s, err := Open(Config{MaxConcurrent: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	bad, err := s.Job("j1-000001")
	if err != nil {
		t.Fatal(err)
	}
	if bad.State != JobFailed || !strings.Contains(bad.Error, "recovered job no longer valid") || !strings.Contains(bad.Error, "requires fused writes") {
		t.Errorf("stale job = %s %q, want failed: recovered job no longer valid: ... requires fused writes", bad.State, bad.Error)
	}
	if ok := waitTerminal(t, s, "j1-000002"); ok.State != JobDone {
		t.Errorf("valid recovered job = %s (%s), want done", ok.State, ok.Error)
	}
}
