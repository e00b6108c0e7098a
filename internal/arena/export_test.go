package arena

// The big-endian host's views, exported to the external tests, which
// hold them to the in-place views on this host.
var (
	DecodeInt32s   = decodeLE[int32]
	DecodeFloat32s = decodeLE[float32]
)
