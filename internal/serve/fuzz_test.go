package serve

import (
	"math/big"
	"regexp"
	"strings"
	"testing"
)

// decimalGrid matches the inputs whose three extents FuzzParseGrid can
// evaluate independently of ParseGrid: optionally signed decimal integers.
var decimalGrid = regexp.MustCompile(`^([+-]?[0-9]+)x([+-]?[0-9]+)x([+-]?[0-9]+)$`)

// FuzzParseGrid hardens the job-spec grid parser: arbitrary input must never
// panic; an accepted grid must be positive, within MaxStreamCells, and
// re-format and re-parse to the same size; a decimal grid whose extents are
// non-positive or whose cell count exceeds MaxStreamCells (computed in
// arbitrary precision, so overflow cannot hide it) must be rejected.
func FuzzParseGrid(f *testing.F) {
	for _, seed := range []string{
		"48x32x8", " 128X64X16 ", "1x1x1", "+3x+4x+5", "007x08x09",
		"0x1x1", "1x-2x3", "12x34", "12x34x56x78", "axbxc", "", "12x34x56 ",
		"1099511627776x1x1", "1048576x1048576x2", "1048576x1048576x1",
		"9223372036854775807x9223372036854775807x9223372036854775807",
		"99999999999999999999x1x1", "-9223372036854775808x-1x1",
	} {
		f.Add(seed)
	}
	limit := big.NewInt(MaxStreamCells)
	f.Fuzz(func(t *testing.T, s string) {
		sz, err := ParseGrid(s)
		if m := decimalGrid.FindStringSubmatch(strings.ToLower(strings.TrimSpace(s))); m != nil {
			cells := big.NewInt(1)
			positive := true
			for _, e := range m[1:] {
				v, ok := new(big.Int).SetString(e, 10)
				if !ok {
					t.Fatalf("extent %q of %q is not decimal", e, s)
				}
				positive = positive && v.Sign() > 0
				cells.Mul(cells, v)
			}
			if (!positive || cells.Cmp(limit) > 0) && err == nil {
				t.Fatalf("ParseGrid(%q) = %v, want rejection (positive %v, %v cells)", s, sz, positive, cells)
			}
		}
		if err != nil {
			return
		}
		cells := big.NewInt(int64(sz.NI))
		cells.Mul(cells, big.NewInt(int64(sz.NJ)))
		cells.Mul(cells, big.NewInt(int64(sz.NK)))
		if !sz.Valid() || cells.Cmp(limit) > 0 {
			t.Fatalf("ParseGrid(%q) accepted %v (%v cells)", s, sz, cells)
		}
		again, err := ParseGrid(sz.String())
		if err != nil || again != sz {
			t.Fatalf("ParseGrid(%q) = %v, but its re-format %q parses to %v, %v", s, sz, sz.String(), again, err)
		}
	})
}
