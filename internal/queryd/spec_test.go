package queryd

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestQuerySpecBounds: each cap is inclusive, one past it is rejected with
// an error naming the field, and the caps admit the benchmark's and the
// CLI's shapes.
func TestQuerySpecBounds(t *testing.T) {
	cases := []struct {
		name    string
		mut     func(*QuerySpec)
		wantErr string
	}{
		{"cli-defaults", func(s *QuerySpec) { s.Side, s.Splits, s.Reducers = 128, 10, 5 }, ""},
		{"benchmark-side", func(s *QuerySpec) { s.Side = 256 }, ""},
		{"side-at-cap", func(s *QuerySpec) { s.Side = MaxSide }, ""},
		{"radius-at-cap", func(s *QuerySpec) { s.Radius = MaxRadius }, ""},
		{"splits-at-cap", func(s *QuerySpec) { s.Splits = MaxSplits }, ""},
		{"reducers-at-cap", func(s *QuerySpec) { s.Reducers = MaxReducers }, ""},
		{"side-over-cap", func(s *QuerySpec) { s.Side = MaxSide + 1 }, "side must be <= 1024"},
		{"radius-over-cap", func(s *QuerySpec) { s.Radius = MaxRadius + 1 }, "radius must be <= 3"},
		{"splits-over-cap", func(s *QuerySpec) { s.Splits = MaxSplits + 1 }, "splits must be <= 256"},
		{"reducers-over-cap", func(s *QuerySpec) { s.Reducers = MaxReducers + 1 }, "reducers must be <= 256"},
		{"huge-side", func(s *QuerySpec) { s.Side = 1 << 30 }, "side must be <= 1024"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec()
			tc.mut(&spec)
			err := spec.Validate()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatal("accepted")
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// FuzzQuerySpec: any JSON body the service decodes into a spec passes
// through Validate without panicking, and an accepted spec is within the
// request bounds.
func FuzzQuerySpec(f *testing.F) {
	good, err := json.Marshal(testSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{"side":1025,"strategy":"baseline","op":"median","radius":1,"splits":10,"reducers":5}`))
	f.Add([]byte(`{"side":64,"strategy":"aggregation","curve":"hilbert","op":"max","combine":true,"combine_nodes":2}`))
	f.Add([]byte(`{"side":64,"strategy":"baseline","faults":"seed=7;map:1:error@0%0.5"}`))
	f.Add([]byte(`{"side":-1,"strategy":"transform","codec":"block+zlib","codec_workers":-3}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec QuerySpec
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		if spec.Validate() != nil {
			return
		}
		if spec.Side > MaxSide || spec.Radius > MaxRadius ||
			spec.Splits > MaxSplits || spec.Reducers > MaxReducers {
			t.Fatalf("accepted an over-bound spec %+v", spec)
		}
	})
}
