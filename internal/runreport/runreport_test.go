package runreport

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"fcdpm/internal/config"
)

func cell(t *testing.T, spec string) Cell {
	t.Helper()
	s, err := config.LoadValidated(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	key, err := s.CacheKey("test")
	if err != nil {
		t.Fatal(err)
	}
	return Cell{Spec: s, Key: key}
}

// TestExecuteIsolatesRows: a batch of same-trace cells renders each row
// exactly as a one-cell Execute does, a cell failing its Build fails only
// its own row, and cells the engine cannot batch (distinct traces) still
// run, one lane each.
func TestExecuteIsolatesRows(t *testing.T) {
	const trace = `"trace":{"kind":"synthetic","seed":3,"duration":300}`
	cells := []Cell{
		cell(t, `{"name":"fc",`+trace+`,"policy":{"kind":"fcdpm"}}`),
		cell(t, `{"name":"bad",`+trace+`,"policy":{"kind":"bogus"}}`),
		cell(t, `{"name":"asap",`+trace+`,"policy":{"kind":"asap"}}`),
		cell(t, `{"name":"fc",`+trace+`,"policy":{"kind":"fcdpm"}}`),
	}
	ctx := context.Background()
	rows := Execute(ctx, "test", cells, nil, nil)
	if rows[1].Err == nil || !strings.Contains(rows[1].Err.Error(), "policy.kind") {
		t.Fatalf("bad cell: err %v, want a policy.kind failure", rows[1].Err)
	}
	for _, i := range []int{0, 2, 3} {
		solo := Execute(ctx, "test", cells[i:i+1], nil, nil)[0]
		if rows[i].Err != nil || solo.Err != nil || rows[i].Res == nil {
			t.Fatalf("cell %d: batched err %v, solo err %v", i, rows[i].Err, solo.Err)
		}
		if !bytes.Equal(rows[i].Body, solo.Body) {
			t.Fatalf("cell %d: batched row differs from its one-cell run:\n%s\n%s", i, rows[i].Body, solo.Body)
		}
	}

	mixed := []Cell{cells[0], cell(t, `{"name":"other","trace":{"kind":"synthetic","seed":4,"duration":300}}`)}
	for i, row := range Execute(ctx, "test", mixed, nil, nil) {
		if row.Err != nil || len(row.Body) == 0 {
			t.Fatalf("mixed-trace cell %d: %v", i, row.Err)
		}
	}
}

// TestPaddedSelectorsBuildLikeTrimmed: a kind selector spelled with
// surrounding blanks or in upper case keys like its trimmed spelling,
// so it must also build and render like it — otherwise a cached answer
// and a fresh run of the same key would disagree.
func TestPaddedSelectorsBuildLikeTrimmed(t *testing.T) {
	const short = `"duration":300`
	for _, tc := range []struct{ padded, trimmed string }{
		{`{"policy":{"kind":" fcdpm"},"trace":{"kind":"synthetic",` + short + `}}`,
			`{"policy":{"kind":"fcdpm"},"trace":{"kind":"synthetic",` + short + `}}`},
		{`{"policy":{"kind":"ASAP "},"trace":{"kind":"synthetic",` + short + `}}`,
			`{"policy":{"kind":"asap"},"trace":{"kind":"synthetic",` + short + `}}`},
		{`{"trace":{"kind":"camcorder ",` + short + `}}`,
			`{"trace":{"kind":"camcorder",` + short + `}}`},
		{`{"storage":{"kind":" liion"},"trace":{"kind":"synthetic",` + short + `}}`,
			`{"storage":{"kind":"liion"},"trace":{"kind":"synthetic",` + short + `}}`},
		{`{"device":{"kind":" synthetic"},"trace":{"kind":"synthetic",` + short + `}}`,
			`{"device":{"kind":"synthetic"},"trace":{"kind":"synthetic",` + short + `}}`},
		{`{"dpm":{"mode":"never "},"trace":{"kind":"synthetic",` + short + `}}`,
			`{"dpm":{"mode":"never"},"trace":{"kind":"synthetic",` + short + `}}`},
		{`{"fallbacks":[" asap","Conv"],"trace":{"kind":"synthetic",` + short + `}}`,
			`{"fallbacks":["asap","conv"],"trace":{"kind":"synthetic",` + short + `}}`},
	} {
		padded, trimmed := cell(t, tc.padded), cell(t, tc.trimmed)
		if padded.Key != trimmed.Key {
			t.Errorf("%s keys apart from %s", tc.padded, tc.trimmed)
		}
		ctx := context.Background()
		a := Execute(ctx, "test", []Cell{padded}, nil, nil)[0]
		b := Execute(ctx, "test", []Cell{trimmed}, nil, nil)[0]
		if a.Err != nil || b.Err != nil {
			t.Fatalf("%s: err %v; trimmed err %v", tc.padded, a.Err, b.Err)
		}
		if !bytes.Equal(a.Body, b.Body) {
			t.Errorf("%s renders unlike its trimmed spelling:\n%s\n%s", tc.padded, a.Body, b.Body)
		}
	}
}

// TestExecuteNamesBodyFromSpec: a body carries its spec's name, and an
// unnamed spec renders as "run", so the body follows from what the cache
// key hashes.
func TestExecuteNamesBodyFromSpec(t *testing.T) {
	const trace = `"trace":{"kind":"synthetic","seed":3,"duration":300}`
	for spec, want := range map[string]string{
		`{"name":"named",` + trace + `}`: `"name":"named"`,
		`{` + trace + `}`:                `"name":"run"`,
	} {
		row := Execute(context.Background(), "test", []Cell{cell(t, spec)}, nil, nil)[0]
		if row.Err != nil || !bytes.Contains(row.Body, []byte(want)) {
			t.Errorf("%s: err %v, body %s; want %s", spec, row.Err, row.Body, want)
		}
	}
}
