package harness

import (
	"twinsearch/internal/series"

	"testing"
)

func TestHumanBytes(t *testing.T) {
	cases := []struct {
		in   int
		want string
	}{
		{500, "500 B"},
		{2048, "2.00 KiB"},
		{3 << 20, "3.00 MiB"},
		{5 << 30, "5.00 GiB"},
	}
	for _, c := range cases {
		if got := humanBytes(c.in); got != c.want {
			t.Errorf("humanBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestMethodIDString(t *testing.T) {
	if Sweepline.String() != "Sweepline" || KVIndex.String() != "KV-Index" ||
		ISAX.String() != "iSAX" || TSIndex.String() != "TS-Index" {
		t.Fatal("method names changed")
	}
	if MethodID(42).String() != "MethodID(42)" {
		t.Fatal("fallback name changed")
	}
}

func TestBuildMethodUnknown(t *testing.T) {
	d := Insect(1, 0)
	ext := series.NewExtractor(d.Data[:2000], series.NormGlobal)
	if _, err := buildMethod(MethodID(99), ext, 100, 10); err == nil {
		t.Fatal("unknown method must fail")
	}
}
