package results

// decodeLine is the record add indexes for a line: a line in Put's
// layout decoded by putLayout and validRow, any other by json.Unmarshal.
func decodeLine(line []byte) (Record, bool) {
	if r, ok := decodePut(line); ok {
		return r, true
	}
	return unmarshalLine(line)
}

// decodePut is decodeLine for lines in Put's layout (see putLayout). Row
// aliases line.
func decodePut(line []byte) (Record, bool) {
	p, ok := putLayout(line)
	end := len(line) - 1
	if !ok || !validRow(line[p.row:end]) {
		return Record{}, false
	}
	return Record{
		Key:    string(line[p.key : p.key+p.keyN]),
		App:    string(line[p.app : p.app+p.appN]),
		Scheme: string(line[p.scheme : p.scheme+p.schemeN]),
		Unix:   p.unix,
		Row:    line[p.row:end:end],
	}, true
}
