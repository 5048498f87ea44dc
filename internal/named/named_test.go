package named_test

import (
	"reflect"
	"strings"
	"testing"

	"mlcr/internal/named"
)

// TestTableContract pins the one registry implementation every
// name → constructor table in the repository shares: empty and
// duplicate names panic, Names is sorted and fresh, lookups find what
// was registered, and a miss errors with the known names.
func TestTableContract(t *testing.T) {
	tab := named.Table[func() int]{Kind: "widget"}
	for i, name := range []string{"b", "c", "a"} {
		v := i
		tab.Register(name, func() int { return v })
	}

	names := tab.Names()
	if want := []string{"a", "b", "c"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	names[0] = "mutated"
	if tab.Names()[0] != "a" {
		t.Fatal("Names() shares its slice with the table")
	}

	for name, want := range map[string]int{"a": 2, "b": 0, "c": 1} {
		mk, err := tab.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if got := mk(); got != want {
			t.Errorf("Lookup(%q)() = %d, want %d", name, got, want)
		}
	}

	mk, err := tab.Lookup("nope")
	if err == nil || mk != nil {
		t.Fatalf("Lookup(unknown) = (constructor %v, error %v), want an error and no constructor", mk != nil, err)
	}
	if msg := err.Error(); !strings.Contains(msg, `unknown widget "nope"`) || !strings.Contains(msg, "[a b c]") {
		t.Fatalf("Lookup(unknown) error %q does not name the kind and the known entries", msg)
	}

	for _, bad := range []string{"", "b"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q) did not panic", bad)
				}
			}()
			tab.Register(bad, func() int { return -1 })
		}()
	}
	if got := len(tab.Names()); got != 3 {
		t.Fatalf("a refused Register changed the table: %d entries", got)
	}
}
