package qos

import "testing"

func TestLevelString(t *testing.T) {
	cases := map[Level]string{Low: "low", Average: "average", High: "high", Level(9): "Level(9)"}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(l), got, want)
		}
	}
}

func TestParseLevelRoundTrip(t *testing.T) {
	for _, l := range Levels {
		got, err := ParseLevel(l.String())
		if err != nil || got != l {
			t.Errorf("ParseLevel(%q) = %v, %v", l.String(), got, err)
		}
	}
	if _, err := ParseLevel("ultra"); err == nil {
		t.Error("ParseLevel of unknown string must fail")
	}
}

func TestLevelValid(t *testing.T) {
	for _, l := range Levels {
		if !l.Valid() {
			t.Errorf("%v should be valid", l)
		}
	}
	if Level(-1).Valid() || Level(3).Valid() {
		t.Error("out-of-range levels must be invalid")
	}
}
