package semisst

import (
	"fmt"
	"testing"

	"hyperdb/internal/device"
	"hyperdb/internal/keys"
)

func BenchmarkBuild(b *testing.B) {
	dev := newDev()
	entries := sortedEntries(10_000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _ := dev.Create(fmt.Sprintf("b%d", i))
		if _, err := Build(f, Options{}, entries, device.Bg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	dev := newDev()
	f, _ := dev.Create("g")
	tbl, _ := Build(f, Options{}, sortedEntries(10_000, 1), device.Bg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := fmt.Sprintf("key-%05d", i%10_000)
		if _, _, found, err := tbl.Get([]byte(k), keys.MaxSeq, device.Fg); err != nil || !found {
			b.Fatal(err)
		}
	}
}
