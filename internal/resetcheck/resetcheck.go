// Package resetcheck is the helper behind every "reset equals fresh" test:
// each initialiser that resets a value in place (Scheduler.Reset,
// TwoTier.Reset, Conn.Reopen, CongestionControl.Init, Incast.Reopen) must
// leave it, outside the keep-list it spells out, exactly as its constructor
// builds it. Diff compares the two field by field, unexported fields
// included, and names each field that differs, so a field added later that
// survives a reset fails by name until the initialiser resets it or the
// keep-list takes it.
package resetcheck

import (
	"reflect"
	"testing"
	"unsafe"
)

// Diff compares got and want — pointers to values of one struct type —
// field by field with reflect.DeepEqual, skipping the fields named in keeps,
// and reports every other field that differs. A keep-list entry that names
// no field is an error too.
func Diff(t testing.TB, got, want any, keeps ...string) {
	t.Helper()
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	kept := map[string]bool{}
	for _, k := range keeps {
		kept[k] = true
		if _, ok := g.Type().FieldByName(k); !ok {
			t.Errorf("%s: keep-list names %q, which is not a field", g.Type(), k)
		}
	}
	for i := 0; i < g.NumField(); i++ {
		name := g.Type().Field(i).Name
		if kept[name] {
			continue
		}
		if a, b := Field(g, i), Field(w, i); !reflect.DeepEqual(a, b) {
			t.Errorf("%s.%s survives the reset: %+v, a fresh one has %+v — reset it or put it on the keep-list",
				g.Type(), name, a, b)
		}
	}
}

// Field reads field i of the addressable struct v, exported or not.
func Field(v reflect.Value, i int) any {
	f := v.Field(i)
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface()
}
