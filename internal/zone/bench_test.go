package zone

import (
	"testing"

	"hyperdb/internal/device"
)

func BenchmarkPut(b *testing.B) {
	dev := device.New(device.UnthrottledProfile("nvme", 0))
	m := openMgr(b, Config{Dev: dev, Partition: 0, BatchSize: 4 << 20})
	val := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := putOne(m, k8(uint64(i)<<24), val, uint64(i+1), false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetResident(b *testing.B) {
	dev := device.New(device.UnthrottledProfile("nvme", 0))
	m := openMgr(b, Config{Dev: dev, Partition: 0, BatchSize: 4 << 20})
	val := make([]byte, 128)
	const n = 100_000
	for i := 0; i < n; i++ {
		putOne(m, k8(uint64(i)<<24), val, uint64(i+1), false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, found, err := m.Get(k8(uint64(i%n)<<24), device.Fg); err != nil || !found {
			b.Fatal(err)
		}
	}
}

func BenchmarkMigrationBatch(b *testing.B) {
	dev := device.New(device.UnthrottledProfile("nvme", 0))
	m := openMgr(b, Config{Dev: dev, Partition: 0, BatchSize: 1 << 20})
	val := make([]byte, 128)
	seq := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 8_192; j++ {
			seq++
			putOne(m, k8(seq<<20), val, seq, false)
		}
		b.StartTimer()
		z := m.PickDemotionVictim()
		if z == nil {
			b.Fatal("no victim")
		}
		batch, err := m.PrepareMigration(z)
		if err != nil {
			b.Fatal(err)
		}
		m.CommitMigration(batch)
	}
}
