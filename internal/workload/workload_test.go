package workload

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"fcdpm/internal/device"
)

func TestCamcorderTraceMatchesPaperStatistics(t *testing.T) {
	tr, err := Camcorder(DefaultCamcorderConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Statistics()
	// 28-minute trace (§5.1).
	if st.Duration < 27*60 || st.Duration > 30*60 {
		t.Errorf("duration = %v s, want ≈1680", st.Duration)
	}
	// Idle in [8, 20] s.
	if st.Idle.Min < 8-1e-9 || st.Idle.Max > 20+1e-9 {
		t.Errorf("idle range [%v, %v], want within [8, 20]", st.Idle.Min, st.Idle.Max)
	}
	// Idle should actually vary with MPEG content, not sit at a bound.
	if st.Idle.Stddev < 0.5 {
		t.Errorf("idle stddev = %v, too flat to represent MPEG variation", st.Idle.Stddev)
	}
	// Fixed active period = 16/5.28 ≈ 3.03 s.
	if math.Abs(st.Active.Min-16.0/5.28) > 1e-9 || math.Abs(st.Active.Max-16.0/5.28) > 1e-9 {
		t.Errorf("active period not fixed at 3.03: [%v, %v]", st.Active.Min, st.Active.Max)
	}
	// RUN current 14.65 W / 12 V.
	if math.Abs(st.ActiveCurrent.Mean-device.CamcorderRunCurrent) > 1e-12 {
		t.Errorf("active current = %v, want %v", st.ActiveCurrent.Mean, device.CamcorderRunCurrent)
	}
}

func TestCamcorderDeterminism(t *testing.T) {
	a, err := Camcorder(DefaultCamcorderConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Camcorder(DefaultCamcorderConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Slots) != len(b.Slots) {
		t.Fatalf("slot counts differ: %d vs %d", len(a.Slots), len(b.Slots))
	}
	for k := range a.Slots {
		if a.Slots[k] != b.Slots[k] {
			t.Fatalf("slot %d differs", k)
		}
	}
}

func TestCamcorderSeedsDiffer(t *testing.T) {
	cfg := DefaultCamcorderConfig()
	a, _ := Camcorder(cfg)
	cfg.Seed = 99
	b, _ := Camcorder(cfg)
	if len(a.Slots) == len(b.Slots) {
		same := true
		for k := range a.Slots {
			if a.Slots[k] != b.Slots[k] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestCamcorderConfigValidation(t *testing.T) {
	mod := func(f func(*CamcorderConfig)) CamcorderConfig {
		c := DefaultCamcorderConfig()
		f(&c)
		return c
	}
	bad := []CamcorderConfig{
		mod(func(c *CamcorderConfig) { c.Duration = 0 }),
		mod(func(c *CamcorderConfig) { c.BufferMB = 0 }),
		mod(func(c *CamcorderConfig) { c.FrameRate = 0 }),
		mod(func(c *CamcorderConfig) { c.GOPLength = 0 }),
		mod(func(c *CamcorderConfig) { c.MeanIBits = 0 }),
		mod(func(c *CamcorderConfig) { c.MinIdle = 25; c.MaxIdle = 8 }),
	}
	for k, c := range bad {
		if _, err := Camcorder(c); err == nil {
			t.Errorf("case %d: invalid config accepted", k)
		}
	}
}

func TestGOPPattern(t *testing.T) {
	c := DefaultCamcorderConfig() // N=15, M=3
	want := "IBBPBBPBBPBBPBB"
	var got strings.Builder
	for f := 0; f < 15; f++ {
		got.WriteByte(c.frameType(f))
	}
	if got.String() != want {
		t.Fatalf("GOP pattern = %s, want %s", got.String(), want)
	}
}

func TestSyntheticTraceMatchesPaperDistributions(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.Duration = 4 * 3600 // long trace for tight statistics
	tr, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Statistics()
	if st.Idle.Min < 5 || st.Idle.Max > 25 {
		t.Errorf("idle range [%v, %v], want within [5, 25]", st.Idle.Min, st.Idle.Max)
	}
	if math.Abs(st.Idle.Mean-15) > 0.5 {
		t.Errorf("idle mean = %v, want ≈15", st.Idle.Mean)
	}
	if st.Active.Min < 2 || st.Active.Max > 4 {
		t.Errorf("active range [%v, %v], want within [2, 4]", st.Active.Min, st.Active.Max)
	}
	if st.ActiveCurrent.Min < 1 || st.ActiveCurrent.Max > 16.0/12 {
		t.Errorf("active current range [%v, %v], want within [1, 1.333]",
			st.ActiveCurrent.Min, st.ActiveCurrent.Max)
	}
}

func TestSyntheticConfigValidation(t *testing.T) {
	mod := func(f func(*SyntheticConfig)) SyntheticConfig {
		c := DefaultSyntheticConfig()
		f(&c)
		return c
	}
	bad := []SyntheticConfig{
		mod(func(c *SyntheticConfig) { c.Duration = -1 }),
		mod(func(c *SyntheticConfig) { c.IdleMax = c.IdleMin }),
		mod(func(c *SyntheticConfig) { c.ActiveMin = 0; c.ActiveMax = 0 }),
		mod(func(c *SyntheticConfig) { c.PowerMax = 1 }),
		mod(func(c *SyntheticConfig) { c.V = 0 }),
	}
	for k, c := range bad {
		if _, err := Synthetic(c); err == nil {
			t.Errorf("case %d: invalid config accepted", k)
		}
	}
}

func TestPeriodic(t *testing.T) {
	tr := Periodic(5, 20, 10, 1.2)
	if tr.Len() != 5 {
		t.Fatalf("len = %d", tr.Len())
	}
	if tr.Duration() != 150 {
		t.Fatalf("duration = %v, want 150", tr.Duration())
	}
	for _, s := range tr.Slots {
		if s.Idle != 20 || s.Active != 10 || s.ActiveCurrent != 1.2 {
			t.Fatalf("bad slot %+v", s)
		}
	}
}

func TestSlotValidate(t *testing.T) {
	bad := []Slot{
		{Idle: -1, Active: 1, ActiveCurrent: 1},
		{Idle: 1, Active: -1, ActiveCurrent: 1},
		{Idle: 1, Active: 1, ActiveCurrent: -1},
	}
	for k, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid slot accepted", k)
		}
	}
	if err := (Slot{Idle: 1, Active: 1, ActiveCurrent: 1}).Validate(); err != nil {
		t.Errorf("valid slot rejected: %v", err)
	}
}

func TestTraceSeries(t *testing.T) {
	tr := &Trace{Slots: []Slot{{Idle: 1, Active: 2, ActiveCurrent: 3}, {Idle: 4, Active: 5, ActiveCurrent: 6}}}
	if got := tr.IdleLengths(); got[0] != 1 || got[1] != 4 {
		t.Errorf("IdleLengths = %v", got)
	}
	if got := tr.ActiveLengths(); got[0] != 2 || got[1] != 5 {
		t.Errorf("ActiveLengths = %v", got)
	}
	if got := tr.ActiveCurrents(); got[0] != 3 || got[1] != 6 {
		t.Errorf("ActiveCurrents = %v", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := Periodic(3, 8, 3, 1.2)
	tr.Name = "round-trip"
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != tr.Name || back.Len() != tr.Len() {
		t.Fatalf("round trip lost data: %+v", back)
	}
	for k := range tr.Slots {
		if tr.Slots[k] != back.Slots[k] {
			t.Fatalf("slot %d differs", k)
		}
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"name":"x","slots":[{"idle":-1,"active":1,"activeCurrent":1}]}`)); err == nil {
		t.Fatal("invalid slot accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr, err := Camcorder(DefaultCamcorderConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("lengths differ: %d vs %d", back.Len(), tr.Len())
	}
	for k := range tr.Slots {
		if tr.Slots[k] != back.Slots[k] {
			t.Fatalf("slot %d differs after CSV round trip", k)
		}
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty CSV accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,b,c\n1,2,3\n")); err == nil {
		t.Error("wrong header accepted")
	}
	if _, err := ReadCSV(strings.NewReader("idle_s,active_s,active_current_a\nx,2,3\n")); err == nil {
		t.Error("non-numeric field accepted")
	}
	if _, err := ReadCSV(strings.NewReader("idle_s,active_s,active_current_a\n-1,2,3\n")); err == nil {
		t.Error("invalid slot accepted")
	}
}

// Property: any generated synthetic trace validates and covers the
// requested duration.
func TestSyntheticProperty(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := DefaultSyntheticConfig()
		cfg.Seed = seed
		cfg.Duration = 300
		tr, err := Synthetic(cfg)
		if err != nil || tr.Validate() != nil {
			return false
		}
		return tr.Duration() >= 300
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStatisticsDutyCycle(t *testing.T) {
	tr := Periodic(4, 15, 5, 1)
	st := tr.Statistics()
	if math.Abs(st.ActiveDutyCycle-0.25) > 1e-12 {
		t.Fatalf("duty cycle = %v, want 0.25", st.ActiveDutyCycle)
	}
}

func TestHeavyTailDistribution(t *testing.T) {
	cfg := DefaultHeavyTailConfig()
	cfg.Duration = 4 * 3600
	tr, err := HeavyTail(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Statistics()
	if st.Idle.Min < 3-1e-9 {
		t.Errorf("idle below Pareto scale: %v", st.Idle.Min)
	}
	if st.Idle.Max > 120+1e-9 {
		t.Errorf("idle above cap: %v", st.Idle.Max)
	}
	// Heavy tail: median well below mean.
	if st.Idle.Median >= st.Idle.Mean {
		t.Errorf("median %v >= mean %v — not heavy-tailed", st.Idle.Median, st.Idle.Mean)
	}
	// Pareto(3, 1.6) mean = 3·1.6/0.6 = 8 (slightly reduced by the cap).
	if st.Idle.Mean < 6 || st.Idle.Mean > 10 {
		t.Errorf("idle mean = %v, want ≈8", st.Idle.Mean)
	}
	// A meaningful fraction of idles sits below the Exp 2 break-even
	// time (10 s) and a meaningful tail above it.
	below := 0
	for _, v := range tr.IdleLengths() {
		if v < 10 {
			below++
		}
	}
	frac := float64(below) / float64(tr.Len())
	if frac < 0.5 || frac > 0.95 {
		t.Errorf("fraction of idles below Tbe = %v, want a genuine mix", frac)
	}
}

func TestHeavyTailValidation(t *testing.T) {
	mod := func(f func(*HeavyTailConfig)) HeavyTailConfig {
		c := DefaultHeavyTailConfig()
		f(&c)
		return c
	}
	bad := []HeavyTailConfig{
		mod(func(c *HeavyTailConfig) { c.Duration = 0 }),
		mod(func(c *HeavyTailConfig) { c.IdleXm = 0 }),
		mod(func(c *HeavyTailConfig) { c.IdleAlpha = 1 }),
		mod(func(c *HeavyTailConfig) { c.IdleCap = 2 }),
		mod(func(c *HeavyTailConfig) { c.ActiveMax = c.ActiveMin }),
		mod(func(c *HeavyTailConfig) { c.PowerMin = 0; c.PowerMax = 0 }),
		mod(func(c *HeavyTailConfig) { c.V = 0 }),
	}
	for k, c := range bad {
		if _, err := HeavyTail(c); err == nil {
			t.Errorf("case %d: invalid config accepted", k)
		}
	}
}

func TestHeavyTailDeterminism(t *testing.T) {
	a, _ := HeavyTail(DefaultHeavyTailConfig())
	b, _ := HeavyTail(DefaultHeavyTailConfig())
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for k := range a.Slots {
		if a.Slots[k] != b.Slots[k] {
			t.Fatal("not deterministic")
		}
	}
}

func TestSceneCutsIncreaseIdleVariation(t *testing.T) {
	smooth := DefaultCamcorderConfig()
	smooth.SceneCutProb = 0
	cutty := DefaultCamcorderConfig()
	cutty.SceneCutProb = 0.5
	a, err := Camcorder(smooth)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Camcorder(cutty)
	if err != nil {
		t.Fatal(err)
	}
	// Scene cuts produce larger slot-to-slot idle jumps.
	jump := func(tr *Trace) float64 {
		var sum float64
		for k := 1; k < tr.Len(); k++ {
			sum += math.Abs(tr.Slots[k].Idle - tr.Slots[k-1].Idle)
		}
		return sum / float64(tr.Len()-1)
	}
	if jump(b) <= jump(a) {
		t.Errorf("scene cuts should raise idle jumps: %v vs %v", jump(b), jump(a))
	}
	bad := DefaultCamcorderConfig()
	bad.SceneCutProb = 1.5
	if _, err := Camcorder(bad); err == nil {
		t.Error("out-of-range scene-cut probability accepted")
	}
}

func TestBurstyRegimes(t *testing.T) {
	cfg := DefaultBurstyConfig()
	cfg.Duration = 2 * 3600
	tr, err := Bursty(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Bimodal idles: every value in one of the two regime bands.
	busy, calm := 0, 0
	for _, s := range tr.Slots {
		switch {
		case s.Idle >= 2 && s.Idle <= 6:
			busy++
		case s.Idle >= 20 && s.Idle <= 40:
			calm++
		default:
			t.Fatalf("idle %v outside both regimes", s.Idle)
		}
	}
	if busy == 0 || calm == 0 {
		t.Fatalf("missing a regime: busy=%d calm=%d", busy, calm)
	}
	// Strong positive lag-1 correlation of the sleep-worthiness indicator:
	// consecutive slots usually share a regime.
	same := 0
	idles := tr.IdleLengths()
	for k := 1; k < len(idles); k++ {
		if (idles[k] > 10) == (idles[k-1] > 10) {
			same++
		}
	}
	frac := float64(same) / float64(len(idles)-1)
	if frac < 0.75 {
		t.Fatalf("regime persistence = %v, want strongly correlated", frac)
	}
}

func TestBurstyValidation(t *testing.T) {
	mod := func(f func(*BurstyConfig)) BurstyConfig {
		c := DefaultBurstyConfig()
		f(&c)
		return c
	}
	bad := []BurstyConfig{
		mod(func(c *BurstyConfig) { c.Duration = 0 }),
		mod(func(c *BurstyConfig) { c.BusyIdleMax = c.BusyIdleMin }),
		mod(func(c *BurstyConfig) { c.CalmIdleMin = 1 }), // overlaps busy band
		mod(func(c *BurstyConfig) { c.StayProb = 1 }),
		mod(func(c *BurstyConfig) { c.ActiveMax = c.ActiveMin }),
		mod(func(c *BurstyConfig) { c.PowerMax = c.PowerMin }),
		mod(func(c *BurstyConfig) { c.V = 0 }),
	}
	for k, c := range bad {
		if _, err := Bursty(c); err == nil {
			t.Errorf("case %d: invalid config accepted", k)
		}
	}
}

// TestSlotValidateRejectsNonFiniteAndZeroDuration is the regression test
// for crafted trace records: NaN slips past plain sign checks (NaN < 0
// is false), and a slot with zero total duration used to pass validation
// and feed degenerate timestep arithmetic into the storage integrators.
// Both must now be rejected with a typed *ValidationError naming the
// offending field.
func TestSlotValidateRejectsNonFiniteAndZeroDuration(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		s     Slot
		field string
	}{
		{Slot{Idle: nan, Active: 1, ActiveCurrent: 1}, "idle"},
		{Slot{Idle: 1, Active: nan, ActiveCurrent: 1}, "active"},
		{Slot{Idle: 1, Active: 1, ActiveCurrent: nan}, "activeCurrent"},
		{Slot{Idle: inf, Active: 1, ActiveCurrent: 1}, "idle"},
		{Slot{Idle: 1, Active: math.Inf(-1), ActiveCurrent: 1}, "active"},
		{Slot{Idle: -2, Active: 1, ActiveCurrent: 1}, "idle"},
		{Slot{Idle: 0, Active: 0, ActiveCurrent: 1}, "duration"},
	}
	for k, c := range cases {
		err := c.s.Validate()
		var ve *ValidationError
		if !errors.As(err, &ve) {
			t.Errorf("case %d: want *ValidationError, got %v", k, err)
			continue
		}
		if ve.Field != c.field {
			t.Errorf("case %d: field = %q, want %q", k, ve.Field, c.field)
		}
	}
	// Zero idle with positive active is back-to-back work: legal.
	if err := (Slot{Idle: 0, Active: 1, ActiveCurrent: 1}).Validate(); err != nil {
		t.Errorf("zero-idle slot rejected: %v", err)
	}
}

// TestTraceValidatePinsSlotIndex checks trace-level validation reports
// which record is bad, and that the CSV reader rejects crafted NaN rows
// (strconv.ParseFloat accepts the spelling "NaN").
func TestTraceValidatePinsSlotIndex(t *testing.T) {
	tr := &Trace{Slots: []Slot{
		{Idle: 1, Active: 1, ActiveCurrent: 1},
		{Idle: math.NaN(), Active: 1, ActiveCurrent: 1},
	}}
	var ve *ValidationError
	if err := tr.Validate(); !errors.As(err, &ve) || ve.Slot != 1 || ve.Field != "idle" {
		t.Fatalf("trace validate = %v, want slot 1 idle", tr.Validate())
	}
	csv := "idle_s,active_s,active_current_a\n10,NaN,1\n"
	if _, err := ReadCSV(strings.NewReader(csv)); !errors.As(err, &ve) || ve.Field != "active" {
		t.Fatalf("ReadCSV(NaN row) = %v, want *ValidationError on active", err)
	}
}
