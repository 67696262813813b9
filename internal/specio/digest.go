package specio

import "encoding/hex"

// Digest is a 32-byte SHA-256 content digest. The cache's canonical
// digests of specs, options and libraries (internal/cache) and its
// result digests all have this type.
type Digest [32]byte

// String returns the digest in lower-case hex — the cache's on-disk
// entry name.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Short returns the first 12 hex characters, for logs and reports.
func (d Digest) Short() string { return hex.EncodeToString(d[:6]) }
