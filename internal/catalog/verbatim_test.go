package catalog

import (
	"strings"
	"testing"
)

// verbatimSeeds are texts whose one non-plain byte or rune sits on, just
// before and across an eight-byte boundary of Verbatim's word test.
func verbatimSeeds() []string {
	var seeds []string
	for _, bad := range []string{"\"", "\\", "<", ">", "&", "\x00", "\x1f", "\x7f", "\x80", "\xff",
		"é", "\u2028", "\u2029", "\xe2\x80", "\xed\xa0\x80", "\xf0\x9f\x98"} {
		for at := 0; at <= 17; at++ {
			seeds = append(seeds, strings.Repeat("p", at)+bad+strings.Repeat("q", 17-at))
		}
	}
	return append(seeds, "", "plain", strings.Repeat("plain ascii ", 9), "日本語のテキスト and ascii")
}

// Every byte value at every offset of a 24-byte plain text: the word test
// must answer what the rune loop answers.
func TestVerbatimWordTestMatchesRunes(t *testing.T) {
	for b := 0; b < 256; b++ {
		for at := 0; at < 24; at++ {
			s := []byte(strings.Repeat("a", 24))
			s[at] = byte(b)
			if got, want := Verbatim(string(s)), verbatimRunes(string(s)); got != want {
				t.Fatalf("byte %#x at %d: Verbatim %v, rune loop %v", b, at, got, want)
			}
		}
	}
	for _, s := range verbatimSeeds() {
		if got, want := Verbatim(s), verbatimRunes(s); got != want {
			t.Fatalf("%q: Verbatim %v, rune loop %v", s, got, want)
		}
	}
}

// FuzzVerbatim holds the eight-byte test to the rune loop on any text.
func FuzzVerbatim(f *testing.F) {
	for _, s := range verbatimSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Verbatim(s), verbatimRunes(s); got != want {
			t.Fatalf("%q: Verbatim %v, rune loop %v", s, got, want)
		}
	})
}
