package wire

import (
	"errors"
	"reflect"
	"testing"
)

func TestShardMapRoundTrip(t *testing.T) {
	m := &ShardMap{
		Version: 7,
		Groups:  []string{"10.0.0.1:4100", "10.0.0.2:4100", "10.0.0.3:4100"},
		Slots:   []uint32{0, 1, 2, 1, 0, 2, 2, 1},
	}
	if err := ValidateShardMap(m); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeShardMap(AppendShardMap(nil, m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip: %+v != %+v", got, m)
	}
}

func TestShardMapRejectsMalformed(t *testing.T) {
	base := &ShardMap{Version: 1, Groups: []string{"a:1"}, Slots: []uint32{0}}
	cases := []struct {
		name string
		mut  func(m *ShardMap)
	}{
		{"version 0", func(m *ShardMap) { m.Version = 0 }},
		{"no groups", func(m *ShardMap) { m.Groups = nil }},
		{"no slots", func(m *ShardMap) { m.Slots = nil }},
		{"owner out of range", func(m *ShardMap) { m.Slots = []uint32{1} }},
		{"empty addr", func(m *ShardMap) { m.Groups = []string{""} }},
	}
	for _, tc := range cases {
		m := &ShardMap{Version: base.Version, Groups: append([]string(nil), base.Groups...), Slots: append([]uint32(nil), base.Slots...)}
		tc.mut(m)
		if err := ValidateShardMap(m); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
		if _, err := DecodeShardMap(AppendShardMap(nil, m)); err == nil {
			t.Errorf("%s: decoded", tc.name)
		}
	}
	if _, err := DecodeShardMap(nil); !errors.Is(err, ErrBadPayload) {
		t.Error("empty map decoded")
	}
	if _, err := DecodeShardMap(append(AppendShardMap(nil, base), 0)); !errors.Is(err, ErrBadPayload) {
		t.Error("trailing bytes decoded")
	}
	// Declared group count far beyond the payload must fail before allocating.
	if _, err := DecodeShardMap([]byte{1, 0xff, 0xff, 0x3f}); err == nil {
		t.Error("absurd group count decoded")
	}
}

func TestHandoffCodecs(t *testing.T) {
	slots := []uint32{3, 1, 4, 1, 5}
	got, err := DecodeHandoffReq(AppendHandoffReq(nil, slots))
	if err != nil || !reflect.DeepEqual(got, slots) {
		t.Fatalf("handoff req: %v %v", got, err)
	}
	if _, err := DecodeHandoffReq(AppendHandoffReq(nil, nil)); err == nil {
		t.Error("empty handoff decoded")
	}
	if _, err := DecodeHandoffReq(append(AppendHandoffReq(nil, slots), 9)); err == nil {
		t.Error("trailing bytes decoded")
	}

	g, gs, err := DecodeHandoffHelloReq(AppendHandoffHelloReq(nil, 2, slots))
	if err != nil || g != 2 || !reflect.DeepEqual(gs, slots) {
		t.Fatalf("handoff hello req: %d %v %v", g, gs, err)
	}
	mv, ss, err := DecodeHandoffHelloResp(AppendHandoffHelloResp(nil, 9, 1234))
	if err != nil || mv != 9 || ss != 1234 {
		t.Fatalf("handoff hello resp: %d %d %v", mv, ss, err)
	}
	if _, _, err := DecodeHandoffHelloResp([]byte{0x80}); err == nil {
		t.Error("truncated hello resp decoded")
	}
}

func TestClusterOpsValidAndNamed(t *testing.T) {
	for _, op := range []Op{OpShardMap, OpHandoff, OpHandoffHello, OpHandoffFlip} {
		if !op.Valid() {
			t.Fatalf("op %d invalid", op)
		}
		if s := op.String(); len(s) == 0 || s[0] == 'O' {
			t.Fatalf("op %d unnamed: %q", op, s)
		}
	}
	if StatusWrongShard.String() != "wrong shard" {
		t.Fatalf("StatusWrongShard = %q", StatusWrongShard.String())
	}
}
