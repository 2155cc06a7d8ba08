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
