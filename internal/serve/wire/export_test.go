package wire

import "pidcan/internal/serve"

// HandleFrame is what a connection does with one whole frame it read,
// short of the socket: parse and verify the header, serve the request
// on the connection's state, append the response to out. It panics on
// a frame the connection would have dropped.
func (s *Server) HandleFrame() func(out, frame []byte) []byte {
	st := &connState{}
	return func(out, frame []byte) []byte {
		h, err := ParseHeader(frame[:HeaderSize])
		if err != nil || !VerifyFrame(frame[:HeaderSize], frame[HeaderSize:]) {
			panic("wire: a frame the connection would drop")
		}
		return s.handle(out, h, frame[HeaderSize:], st)
	}
}

// CodeBadRequest and CodeReadOnly are serve's codes under the names
// golden_test.go and the client's redirect tests pin them by.
const (
	CodeBadRequest = serve.CodeBadRequest
	CodeReadOnly   = serve.CodeReadOnly
)
