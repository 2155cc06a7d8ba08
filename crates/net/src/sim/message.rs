/// A message in flight between two sites.
///
/// `size` is measured in the paper's simple data units: object transfers use
/// the object size, control messages use 0 and therefore contribute nothing
/// to the accounted network transfer cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message<P> {
    /// Sending site.
    pub src: usize,
    /// Receiving site.
    pub dst: usize,
    /// Payload size in data units (0 for control messages).
    pub size: u64,
    /// Application payload.
    pub payload: P,
}

/// A client request of an arrival stream (see
/// [`Simulator::set_arrivals`](super::Simulator::set_arrivals)): `site`
/// reads or writes `object` at time `at`. The simulator reads only `at`
/// and `site`; the rest is for the handler's
/// [`Node::on_arrival`](super::Node::on_arrival).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Arrival {
    /// When the request falls due.
    pub at: super::Time,
    /// Issuing site.
    pub site: u32,
    /// Requested object.
    pub object: u32,
    /// A write (else a read).
    pub write: bool,
}
