package service

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"bbwfsim/internal/core"
)

// pinnedModelVersion and modelDigests are the model-identity tripwire: the
// SHA-256 of the encoded result of a few seeded requests, pinned beside the
// core.ModelVersion they were produced under. A change that moves these
// bytes must bump core.ModelVersion (so caches and journals keyed by the
// old model are never served) and re-pin both here.
const pinnedModelVersion = 2

var modelDigests = map[int64]string{
	1: "6c9a2d7b61d134660ebc4d6fb6f8d55eef32c6eb578d1fcbd31b74b78eb7cc2a", // genomes
	2: "adad1017a80e46def67ee42338b26a48f8d59beaac185c01f9873d7b429fee8b", // genomes
	3: "af2f57c88384ef450310542eb1148ce3b25dd0f21133580fc744fd32c38d27ca", // swarp
	4: "9d086412136460dda7ab4855c74f8018400d31d303ef3537a4e34963568a370a", // gen
	5: "3274d3979aa800bba3189ea6f7ef1f14c06d8e2e14d3fe01449ba2800633a924", // gen
}

func TestModelVersionTripwire(t *testing.T) {
	if core.ModelVersion != pinnedModelVersion {
		t.Fatalf("core.ModelVersion = %d but the digests are pinned for %d: re-pin them", core.ModelVersion, pinnedModelVersion)
	}
	for seed, want := range modelDigests {
		req := SeededRequest(seed)
		data, err := Execute(&req)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
			t.Errorf("seed %d: encoded result digest %s, pinned %s: the model output moved, bump core.ModelVersion and re-pin", seed, got, want)
		}
	}
}
