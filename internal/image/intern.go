package image

import "sync"

// LevelID is a dense interned identifier for one level's canonical
// package-set key. Two images share a level exactly when their LevelIDs
// for it are equal, so the simulator's hottest comparison — multi-level
// matching — runs on integers instead of canonical key strings.
//
// Every image interns into one process-wide table, in which ID 0 is
// the empty key: the zero Image's LevelIDs are exact without any
// construction. The ID a non-empty key receives depends on interning
// order, which may vary across process runs under concurrency. That is
// sound because IDs are only ever compared for equality — equal IDs ⇔
// equal key strings — and nothing in the repository orders or iterates
// by LevelID. Code that needs a canonical representation (display,
// serialization, feature hashing) keeps using the key strings.
type LevelID uint32

// internTable maps each level key to its LevelID. Interning is concurrency-safe (images
// may be constructed from parallel runs); lookups never happen on hot
// paths because every image caches its three IDs at construction.
var internTable = struct {
	sync.Mutex
	ids map[string]LevelID
}{ids: map[string]LevelID{"": 0}}

// intern returns the ID of key, assigning the next dense ID on first
// sight.
func intern(key string) LevelID {
	internTable.Lock()
	defer internTable.Unlock()
	id, ok := internTable.ids[key]
	if !ok {
		id = LevelID(len(internTable.ids))
		internTable.ids[key] = id
	}
	return id
}

// LevelIDs returns the image's three interned level-key IDs, indexed
// OS, Language, Runtime.
func (im *Image) LevelIDs() [3]LevelID { return im.levelIDs }
