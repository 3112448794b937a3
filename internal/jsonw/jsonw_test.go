package jsonw

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"testing"
)

// fields is a struct whose MarshalIndent form TestFieldsMatchMarshalIndent
// writes by hand with the typed helpers.
type fields struct {
	S  string    `json:"s"`
	I  int       `json:"i"`
	U  uint64    `json:"u"`
	F  float64   `json:"f"`
	Fs []float64 `json:"fs"`
	Us []uint64  `json:"us"`
}

// TestFieldsMatchMarshalIndent writes struct members with the typed
// helpers, over strings that need every kind of escape, and compares
// with MarshalIndent.
func TestFieldsMatchMarshalIndent(t *testing.T) {
	strs := []string{
		"", "plain", "<a&b>", "\"q\" \\ /", "\x00\x01\b\f\n\r\t\x1f\x7f", "\xff\xfe", "ok\xe2\x82",
		"sep" + string(rune(0x2028)) + "par" + string(rune(0x2029)), "é✓😀",
	}
	for i, str := range strs {
		v := []fields{
			{S: str, I: -i, U: math.MaxUint64 - uint64(i), F: float64(i) / 7},
			{S: str, Fs: []float64{}, Us: []uint64{}},
			{Fs: []float64{1e-7, -0.5}, Us: []uint64{0, 1 << 63}},
		}
		want, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		w := New(make([]byte, 0, 16))
		w.BeginArray()
		for _, f := range v {
			w.BeginObject()
			w.StringField("s", f.S)
			w.IntField("i", f.I)
			w.UintField("u", f.U)
			w.FloatField("f", f.F)
			w.Key("fs")
			w.Floats(f.Fs)
			w.Key("us")
			w.Uints(f.Us)
			w.EndObject()
		}
		w.EndArray()
		got, err := w.Bytes()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("string %q: writer gave (%v)\n%s\nMarshalIndent gave\n%s", str, err, got, want)
		}
	}
}

// write renders v, a tree of the JSON values encoding/json decodes into
// an any (with []any, map[string]any and float64), through a Writer.
// Object keys are written in sorted order, as MarshalIndent writes maps.
func write(w *Writer, v any) {
	switch v := v.(type) {
	case nil:
		w.Null()
	case string:
		w.String(v)
	case float64:
		w.Float(v)
	case []any:
		w.BeginArray()
		for _, e := range v {
			write(w, e)
		}
		w.EndArray()
	case map[string]any:
		w.BeginObject()
		for _, k := range sortedKeys(v) {
			w.Key(k)
			write(w, v[k])
		}
		w.EndObject()
	}
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestLayoutMatchesMarshalIndent: containers empty and full, nested in
// both orders, scalars at the top level, and nesting deeper than the
// writer's indentation constant all come out as MarshalIndent lays them
// out.
func TestLayoutMatchesMarshalIndent(t *testing.T) {
	deep := any("leaf")
	for i := 0; i < 40; i++ {
		deep = []any{map[string]any{"k": deep, "e": []any{}, "o": map[string]any{}}}
	}
	for _, doc := range []string{
		`null`, `"x"`, `1.5`, `[]`, `{}`, `[[]]`, `[{}]`, `{"a":[]}`, `{"a":{}}`,
		`[1,[2,[3,[]]],{"b":null,"a":"<&>"}]`,
		`{"z":{"y":{"x":[1e-7,1e21,-0,123456789,0.000001]}},"a":[{},[],null]}`,
	} {
		var v any
		if err := json.Unmarshal([]byte(doc), &v); err != nil {
			t.Fatal(err)
		}
		check(t, v)
	}
	check(t, deep)
}

func check(t *testing.T, v any) {
	t.Helper()
	want, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	w := New(nil)
	write(w, v)
	got, err := w.Bytes()
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("writer gave (%v)\n%s\nMarshalIndent gave\n%s", err, got, want)
	}
}

// TestFloatFormsMatchEncodingJSON checks AppendFloat around the switches
// between the 'f' and 'e' forms and at the extremes.
func TestFloatFormsMatchEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e-7, 1.23e-9, 1e-10, 1e-100,
		1e21, math.Nextafter(1e21, 0), 1e22, 1e100, math.MaxFloat64, math.SmallestNonzeroFloat64, -1e-7, -1e21,
	} {
		want, _ := json.Marshal(f)
		got, err := AppendFloat(nil, f)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%g: %s (%v), want %s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendFloat(nil, f); err == nil {
			t.Errorf("%g formatted without error", f)
		}
		w := New(nil)
		w.BeginArray()
		w.Float(1)
		w.Float(f)
		w.EndArray()
		if _, err := w.Bytes(); err == nil {
			t.Errorf("writer took %g without error", f)
		}
	}
}
