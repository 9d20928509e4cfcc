//! Framed packets: the wire unit of a pipelined phase.
//!
//! A pipelined exchange phase splits a block into `Q` packets and moves
//! packet `q` of iteration `k` through the phase's `k`-th link as soon as
//! its own input has arrived — the paper's stage `s = k + q` wavefront.
//! The schedule itself lives with the one engine that runs it (the
//! `Pipe`/`Drain`/`TailSend`/`TailRecv` steps of `mph-eigen`'s
//! `JobNode`); this module provides what travels:
//!
//! * [`Packet`] — a `(job, k, q)` header plus payload. The header lets
//!   every receive assert its protocol position, turning a silent slip
//!   into an immediate panic, and the job tag lets a receiver
//!   demultiplex interleaved jobs' packets off one FIFO link
//!   ([`crate::jobmux::JobMux`]);
//! * its [`Meterable`] impl, which meters the payload only — so
//!   packetizing a block reframes the same volume into `Q` messages, and
//!   traces carry the `(k, q)` identity of every packet.
//!
//! The pure CC-cube pipeline of \[9\], whose per-packet work is a function
//! of the packet alone, is [`pipelined_exchange`](crate::pipelined::pipelined_exchange).

use crate::spmd::Meterable;

/// A framed packet: pipeline coordinates plus payload.
///
/// `k` is the iteration (hop) that sent the packet, `q` the packet index
/// within the payload split, and `job` the batch-job id when several
/// independent problems multiplex one fabric (0 for solo programs).
#[derive(Debug, Clone, PartialEq)]
pub struct Packet<P> {
    pub job: u32,
    pub k: u32,
    pub q: u32,
    pub payload: P,
}

impl<P> Packet<P> {
    /// A solo (job-0) packet.
    pub fn new(k: u32, q: u32, payload: P) -> Self {
        Packet { job: 0, k, q, payload }
    }

    /// A packet tagged for batch job `job`.
    pub fn for_job(job: u32, k: u32, q: u32, payload: P) -> Self {
        Packet { job, k, q, payload }
    }
}

impl<P: Meterable> Meterable for Packet<P> {
    fn elems(&self) -> u64 {
        self.payload.elems()
    }

    fn is_control(&self) -> bool {
        self.payload.is_control()
    }

    fn job(&self) -> u32 {
        self.job
    }

    fn kq(&self) -> Option<(u32, u32)> {
        Some((self.k, self.q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmd::run_spmd_metered;

    #[test]
    fn traffic_volume_is_q_invariant() {
        // Framing meters the payload only: splitting a 12-element payload
        // into q packets and walking them over a 3-hop link path moves the
        // same per-dimension volume for every q, in q times the messages.
        let links = [0usize, 1, 0];
        let volume = |q: usize| {
            let (_, meter) = run_spmd_metered::<Packet<Vec<f64>>, (), _>(2, move |ctx| {
                let mut packets: Vec<Vec<f64>> = (0..q).map(|_| vec![0.0; 12 / q]).collect();
                for (k, &link) in links.iter().enumerate() {
                    for (i, p) in packets.drain(..).enumerate() {
                        ctx.send(link, Packet::new(k as u32, i as u32, p));
                    }
                    packets = (0..q)
                        .map(|i| {
                            let pkt = ctx.recv(link);
                            assert_eq!((pkt.job, pkt.k, pkt.q), (0, k as u32, i as u32));
                            pkt.payload
                        })
                        .collect();
                }
            });
            (meter.volume_by_dim(), meter.total_messages())
        };
        let (v1, m1) = volume(1);
        let (v4, m4) = volume(4);
        assert_eq!(v1, v4);
        assert_eq!(m4, m1 * 4);
    }
}
