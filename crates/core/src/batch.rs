//! The consensus payload: an ordered batch of client transactions.

use pbc_consensus::{Payload, PersistPayload};
use pbc_types::encode::{CanonicalEncode, Decoder, Encoder};
use pbc_types::Transaction;

/// A transaction batch proposed to consensus (one batch = one block).
///
/// The payload digest and wire size are computed once, when the batch
/// is built ([`Batch::new`] or [`PersistPayload::from_bytes`]): every
/// replica asks for them on every message that carries the batch.
/// Build a new batch rather than editing `id` or `txs` in place, or the
/// cached values go stale.
#[derive(Clone, Debug)]
pub struct Batch {
    /// Batch sequence number assigned by the submitting client layer.
    pub id: u64,
    /// The transactions, in client-submission order.
    pub txs: Vec<Transaction>,
    digest: u64,
    wire_size: usize,
}

impl Batch {
    /// Creates a batch.
    pub fn new(id: u64, txs: Vec<Transaction>) -> Self {
        let bytes = encode(id, &txs);
        Batch::with_encoding(id, txs, &bytes)
    }

    /// Builds a batch from its fields and their [`PersistPayload`]
    /// encoding `bytes`: the digest covers the id and the transactions
    /// (not the count), and the wire size is the encoding's length.
    fn with_encoding(id: u64, txs: Vec<Transaction>, bytes: &[u8]) -> Self {
        let digest = pbc_crypto::sha256::sha256_concat(&[&bytes[..8], &bytes[16..]]).prefix_u64();
        Batch { id, txs, digest, wire_size: bytes.len() }
    }
}

/// The persist encoding: id, transaction count, transactions.
fn encode(id: u64, txs: &[Transaction]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u64(id).u64(txs.len() as u64);
    for tx in txs {
        tx.encode(&mut e);
    }
    e.finish()
}

impl PartialEq for Batch {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && self.txs == other.txs
    }
}

impl Eq for Batch {}

impl Payload for Batch {
    fn digest_u64(&self) -> u64 {
        self.digest
    }

    fn wire_size(&self) -> usize {
        self.wire_size
    }
}

impl PersistPayload for Batch {
    fn to_bytes(&self) -> Vec<u8> {
        encode(self.id, &self.txs)
    }

    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut d = Decoder::new(bytes);
        let id = d.u64()?;
        let n = d.u64()? as usize;
        let mut txs = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            txs.push(Transaction::decode(&mut d)?);
        }
        d.is_empty().then(|| Batch::with_encoding(id, txs, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use pbc_types::{ClientId, EnterpriseId, Op, TxId, TxScope, VmCall};
    use proptest::prelude::*;

    fn tx(i: u64) -> Transaction {
        Transaction::new(TxId(i), ClientId(0), vec![Op::Get { key: format!("k{i}") }])
    }

    /// The digest recomputed from scratch: SHA-256 over the id and the
    /// canonical transaction encodings.
    fn reference_digest(batch: &Batch) -> u64 {
        let mut enc = Encoder::new();
        enc.u64(batch.id);
        for tx in &batch.txs {
            tx.encode(&mut enc);
        }
        pbc_crypto::sha256(enc.as_slice()).prefix_u64()
    }

    fn reference_wire_size(batch: &Batch) -> usize {
        16 + batch.txs.iter().map(|t| t.canonical_bytes().len()).sum::<usize>()
    }

    /// One operation of every shape, VM invocations included, chosen by
    /// `shape` and filled from `n` and `key`.
    fn op(shape: u8, n: u64, key: String) -> Op {
        match shape {
            0 => Op::Get { key },
            1 => Op::Put { key, value: Bytes::copy_from_slice(&n.to_be_bytes()) },
            2 => Op::Incr { key, delta: n as i64 },
            3 => Op::Transfer { from: key.clone(), to: format!("{key}'"), amount: n },
            4 => Op::Noop { busy_work: n as u32 },
            5 => Op::Delete { key },
            _ => Op::Invoke {
                call: VmCall {
                    bytecode: Bytes::copy_from_slice(&n.to_le_bytes()[..(n % 9) as usize]),
                    args: vec![n; (n % 4) as usize],
                    gas_limit: n,
                    declared_reads: vec![key.clone()],
                    declared_writes: vec![key; (n % 3) as usize],
                },
            },
        }
    }

    fn scope(n: u64) -> TxScope {
        match n % 3 {
            0 => TxScope::Global,
            1 => TxScope::Internal(EnterpriseId(n as u32)),
            _ => TxScope::CrossEnterprise((0..n % 4).map(|e| EnterpriseId(e as u32)).collect()),
        }
    }

    fn assert_identity(batch: &Batch) {
        assert_eq!(batch.digest_u64(), reference_digest(batch));
        assert_eq!(batch.wire_size(), reference_wire_size(batch));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn cached_identity_matches_recomputation(
            id in any::<u64>(),
            specs in proptest::collection::vec(
                (any::<u64>(), proptest::collection::vec((0u8..7, any::<u64>(), "[a-z]{0,6}"), 0..5)),
                0..10,
            ),
            flip in any::<u64>(),
        ) {
            let txs: Vec<Transaction> = specs
                .into_iter()
                .map(|(n, ops)| {
                    let ops = ops.into_iter().map(|(shape, v, key)| op(shape, v, key)).collect();
                    Transaction::with_scope(TxId(n), ClientId(n as u32), scope(n), ops)
                })
                .collect();
            let built = Batch::new(id, txs.clone());
            let bytes = built.to_bytes();
            let decoded = Batch::from_bytes(&bytes).expect("a batch's own encoding decodes");
            let cloned = built.clone();
            for batch in [&built, &decoded, &cloned] {
                assert_identity(batch);
            }
            prop_assert_eq!(&decoded, &built);
            prop_assert_eq!(&cloned, &built);
            prop_assert_ne!(&Batch::new(id.wrapping_add(1), txs), &built);
            // Damaged bytes either fail to decode or decode to a batch
            // whose cached identity is still its own.
            let mut damaged = bytes;
            let at = (flip % damaged.len() as u64) as usize;
            damaged[at] ^= (flip >> 56) as u8 | 1;
            if let Some(batch) = Batch::from_bytes(&damaged) {
                assert_identity(&batch);
                prop_assert_eq!(&batch, &Batch::new(batch.id, batch.txs.clone()));
            }
        }
    }

    #[test]
    fn digest_depends_on_content_and_id() {
        let a = Batch::new(1, vec![tx(1)]);
        let b = Batch::new(1, vec![tx(1)]);
        let c = Batch::new(2, vec![tx(1)]);
        let d = Batch::new(1, vec![tx(2)]);
        assert_eq!(a.digest_u64(), b.digest_u64());
        assert_ne!(a.digest_u64(), c.digest_u64());
        assert_ne!(a.digest_u64(), d.digest_u64());
    }

    #[test]
    fn persist_codec_roundtrips_and_rejects_malformation() {
        let batch = Batch::new(7, vec![tx(1), tx(2), tx(3)]);
        let bytes = batch.to_bytes();
        assert_eq!(Batch::from_bytes(&bytes), Some(batch.clone()));
        // Truncation at any boundary must degrade to None, never panic:
        // the bytes may have come off a torn WAL tail.
        assert_eq!(Batch::from_bytes(&bytes[..bytes.len() - 1]), None);
        assert_eq!(Batch::from_bytes(&[]), None);
        let mut padded = bytes;
        padded.push(0);
        assert_eq!(Batch::from_bytes(&padded), None, "trailing garbage rejected");
    }

    #[test]
    fn wire_size_grows_with_transactions() {
        let small = Batch::new(1, vec![tx(1)]);
        let big = Batch::new(1, (0..10).map(tx).collect());
        assert!(big.wire_size() > small.wire_size());
    }
}
