package trace

// SetMmapDisabledForTest force-disables (or re-enables) mmap so tests
// can exercise OpenMapped's io fallback path deterministically.
func SetMmapDisabledForTest(v bool) { mmapDisabled.Store(v) }

// ParseForTest parses a .wtrc byte image exactly as OpenMapped parses a
// file's contents, without the file.
func ParseForTest(data []byte) (*MappedTrace, error) {
	c, err := parseWTRC(data)
	if err != nil {
		return nil, err
	}
	return &MappedTrace{columns: c}, nil
}
