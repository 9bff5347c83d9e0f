package bento

import (
	"fmt"
	"io"
	"net"

	"github.com/bento-nfv/bento/internal/hs"
	"github.com/bento-nfv/bento/internal/simnet"
	"github.com/bento-nfv/bento/internal/torclient"
)

// ServeHidden exposes a running Bento server as a hidden service (§5: "or
// Bento may run as a hidden service"): each rendezvous connection is
// piped to the local Bento listener, so clients who cannot (or prefer not
// to) use the exit-to-localhost path reach the same protocol
// anonymously in both directions.
//
// The returned service's ID is the address clients pass to
// Client.ConnectHidden. Close the service to stop accepting.
func ServeHidden(host *simnet.Host, tor *torclient.Client, ident *hs.Identity) (*hs.Service, error) {
	if ident == nil {
		var err error
		ident, err = hs.NewIdentity()
		if err != nil {
			return nil, err
		}
	}
	local := fmt.Sprintf("%s:%d", host.Name(), Port)
	return hs.Launch(tor, ident, hs.ServiceConfig{
		Handler: func(conn net.Conn) {
			defer conn.Close()
			back, err := host.Dial(local)
			if err != nil {
				return
			}
			defer back.Close()
			// Either direction ending closes both conns, which ends the
			// other copy.
			host.Clock().Go(func() {
				io.Copy(back, conn)
				back.Close()
			})
			io.Copy(conn, back)
		},
	})
}
