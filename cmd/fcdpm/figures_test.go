package main

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// runStdout runs the CLI and returns what it printed on stdout.
func runStdout(t *testing.T, args ...string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = f
	err = run(context.Background(), args)
	os.Stdout = old
	f.Close()
	if err != nil {
		t.Fatalf("run(%v) = %v", args, err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestFiguresRenderEachArtifactOnce: `fcdpm figures` writes every file
// of the reproduction record, and the subcommands that print one of
// them print exactly its bytes at default flags.
func TestFiguresRenderEachArtifactOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full artifact regeneration")
	}
	dir := t.TempDir()
	runStdout(t, "figures", "-out", dir)
	want := []string{
		"ablation_aggregation.csv",
		"ablation_beta.csv",
		"ablation_bounds.txt",
		"ablation_capacity.csv",
		"ablation_constant_eta.txt",
		"ablation_flat_bound.txt",
		"ablation_levels.csv",
		"ablation_predictors.txt",
		"ablation_slew.csv",
		"bursty_predictors.txt",
		"dvs_companion.txt",
		"experiment3.txt",
		"experiment4.txt",
		"fig2.svg",
		"fig2_stack_ivp.csv",
		"fig3.svg",
		"fig3_efficiency.csv",
		"fig4_motivational.txt",
		"fig7.svg",
		"fig7_asap.csv",
		"fig7_fcdpm.csv",
		"fig7_load.csv",
		"hydrogen.txt",
		"multiseed.txt",
		"summary.txt",
		"table2_exp1.txt",
		"table3_exp2.txt",
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
		if info, err := e.Info(); err != nil || info.Size() == 0 {
			t.Errorf("%s is empty (%v)", e.Name(), err)
		}
	}
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("wrote %v\nwant %v", got, want)
	}
	read := func(name string) string {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, sub := range []string{"Conv-DPM", "ASAP-DPM", "FC-DPM", "40.8%"} {
		if !strings.Contains(read("table2_exp1.txt"), sub) {
			t.Errorf("table2_exp1.txt missing %q", sub)
		}
	}
	for file, header := range map[string]string{
		"fig2_stack_ivp.csv":  "ifc_a,vfc_v,power_w\n",
		"fig3_efficiency.csv": "if_a,stack_eff,system_prop_eff,linear_model,system_onoff_eff\n",
	} {
		if !strings.HasPrefix(read(file), header) {
			t.Errorf("%s header is not %q", file, header)
		}
	}
	for _, tc := range []struct{ cmd, file string }{
		{"exp1", "table2_exp1.txt"},
		{"exp2", "table3_exp2.txt"},
		{"motiv", "fig4_motivational.txt"},
		{"hydrogen", "hydrogen.txt"},
	} {
		want := read(tc.file)
		t.Run(tc.cmd, func(t *testing.T) {
			if got := runStdout(t, tc.cmd); got != want {
				t.Errorf("fcdpm %s printed\n%s\nwant the bytes of %s:\n%s", tc.cmd, got, tc.file, want)
			}
		})
	}
}
