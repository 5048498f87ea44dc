package image

import (
	"fmt"
	"sync"
)

// LevelID is a dense interned identifier for one level's canonical
// package-set key within a Universe. Two images built in the same
// universe share a level exactly when their LevelIDs for it are equal,
// so the simulator's hottest comparison — multi-level matching — runs
// on integers instead of canonical key strings.
//
// IDs are universe-local: the same key string interns to (potentially)
// different IDs in different universes, and IDs from different
// universes must never be compared. They are dense and
// insertion-ordered — the i-th distinct key interned gets ID i — which
// makes them directly usable as array indices and keeps any structure
// keyed by them deterministic.
type LevelID uint32

// Universe is a symbol table interning level-key strings to dense
// LevelIDs. Interning is concurrency-safe (images may be constructed
// from parallel runs); lookups never happen on hot paths because every
// NewImage-built Image caches its three IDs at construction.
//
// Determinism note: the ID a key receives depends on interning order,
// which may vary across process runs under concurrency. That is sound
// because IDs are only ever compared for equality — equal IDs ⇔ equal
// key strings within one universe — and nothing in the repository
// orders or iterates by LevelID. Code that needs a canonical
// representation (display, serialization, feature hashing) keeps using
// the key strings.
type Universe struct {
	mu   sync.Mutex
	ids  map[string]LevelID
	keys []string
}

// NewUniverse returns an empty symbol table.
func NewUniverse() *Universe {
	return &Universe{ids: make(map[string]LevelID)}
}

// DefaultUniverse is the process-wide universe NewImage interns into.
// Every image in a simulation run lives here unless a test explicitly
// builds images in a private universe via Universe.NewImage.
var DefaultUniverse = NewUniverse()

// Intern returns the ID of key, assigning the next dense ID on first
// sight.
func (u *Universe) Intern(key string) LevelID {
	u.mu.Lock()
	id, ok := u.ids[key]
	if !ok {
		id = LevelID(len(u.keys))
		u.ids[key] = id
		u.keys = append(u.keys, key)
	}
	u.mu.Unlock()
	return id
}

// Key returns the key string interned as id. It panics on an ID the
// universe never issued — almost always a sign of an ID imported from
// another universe.
func (u *Universe) Key(id LevelID) string {
	u.mu.Lock()
	defer u.mu.Unlock()
	if int(id) >= len(u.keys) {
		panic(fmt.Sprintf("image: LevelID %d not issued by this universe (len %d)", id, len(u.keys)))
	}
	return u.keys[id]
}

// Len returns the number of distinct keys interned so far.
func (u *Universe) Len() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.keys)
}

// NewImage builds an image whose level keys are interned in u. See the
// package-level NewImage for the normalization it performs.
func (u *Universe) NewImage(name string, pkgs ...Package) Image {
	im := newNormalized(name, pkgs)
	im.uni = u
	for i := range im.levelKeys {
		im.levelIDs[i] = u.Intern(im.levelKeys[i])
	}
	return im
}

// Interned returns the image's universe and its three dense level-key
// IDs (indexed OS, Language, Runtime). The universe is nil — and the
// IDs meaningless — for zero-value images that skipped NewImage;
// callers must fall back to LevelKey string comparison then.
func (im *Image) Interned() (*Universe, [3]LevelID) {
	return im.uni, im.levelIDs
}

// LevelIDs returns the image's three level-key IDs in the default
// universe, interning them on demand for images that skipped NewImage
// (a slow path that rebuilds the canonical key strings; mlcr-vet's
// newimage analyzer flags such construction in internal/ code). It
// panics if the image was built in a different universe: its IDs would
// be incomparable with default-universe IDs.
func (im *Image) LevelIDs() [3]LevelID {
	if im.uni == DefaultUniverse {
		return im.levelIDs
	}
	if im.uni != nil {
		panic(fmt.Sprintf("image: LevelIDs on image %q from a non-default universe", im.Name))
	}
	var ids [3]LevelID
	for i, l := range Levels {
		ids[i] = DefaultUniverse.Intern(im.computeLevelKey(l))
	}
	return ids
}
