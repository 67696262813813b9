package topology

import "nocvi/internal/soc"

// AddRouteUnchecked appends the route of flow fi over links, with a
// backup over each of backups, checking nothing and accounting no
// traffic, so a test can hand an encoder a design no reader accepts.
func AddRouteUnchecked(t *Topology, fi soc.FlowID, links []LinkID, backups ...[]LinkID) {
	r := Route{Flow: fi, Links: t.addPath(links)}
	for _, b := range backups {
		r.Backups = append(r.Backups, t.addPath(b))
	}
	t.Routes = append(t.Routes, r)
}
