//! Parked sessions: crash-safe storage for interrupted calculations.
//!
//! When a request's budget runs out (or the server drains on SIGTERM with
//! work in flight), the partial result's checkpoint is *parked* under a
//! fresh token. A later `resume {token}` — against this process or a
//! restarted one — continues the sweep bit-identically.
//!
//! Persistence is a text format in the repo's house style (cf.
//! `flowrel-checkpoint v1`): a header line, small `key value` fields, then
//! byte-length-prefixed blocks for the embedded `.fnet` and checkpoint
//! texts (length-prefixing, not line-framing, because both blocks contain
//! newlines). Files are written to a temporary name and renamed into place,
//! so a crash mid-write never corrupts an existing parked session; loading
//! skips unreadable files rather than refusing to start.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::proto::valid_token;

const MAGIC: &str = "flowrel-parked-session v1";

/// The park-file line marking a session resumed from a client's checkpoint.
const ORIGIN_CLIENT: &str = "origin client\n";

/// One interrupted calculation, ready to resume.
#[derive(Clone, Debug, PartialEq)]
pub struct ParkedSession {
    /// The resume token (also the file stem on disk).
    pub token: String,
    /// Strategy key (see `StrategySpec::key`) the session was running.
    pub strategy_key: String,
    /// The `.fnet` text of the instance.
    pub net_text: String,
    /// The `flowrel-checkpoint v1` text capturing the sweep cursor.
    pub checkpoint_text: String,
    /// The session descends from a checkpoint a client sent, not one this
    /// server wrote, so its answers are returned but never cached.
    pub from_client: bool,
}

impl ParkedSession {
    /// Serializes to the on-disk format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push('\n');
        out.push_str(&format!("token {}\n", self.token));
        out.push_str(&format!("strategy {}\n", self.strategy_key));
        // optional line: server-started sessions keep the legacy layout, and
        // files without it parse as server-written
        if self.from_client {
            out.push_str(ORIGIN_CLIENT);
        }
        out.push_str(&format!("net {}\n", self.net_text.len()));
        out.push_str(&self.net_text);
        out.push('\n');
        out.push_str(&format!("checkpoint {}\n", self.checkpoint_text.len()));
        out.push_str(&self.checkpoint_text);
        out.push('\n');
        out
    }

    /// Parses the on-disk format.
    pub fn from_text(text: &str) -> Result<ParkedSession, String> {
        let rest = text
            .strip_prefix(MAGIC)
            .and_then(|r| r.strip_prefix('\n'))
            .ok_or_else(|| format!("missing '{MAGIC}' header"))?;
        let (token, rest) = field(rest, "token")?;
        if !valid_token(&token) {
            return Err("malformed token field".into());
        }
        let (strategy_key, rest) = field(&rest, "strategy")?;
        let from_client = rest.starts_with(ORIGIN_CLIENT);
        let rest = rest.strip_prefix(ORIGIN_CLIENT).unwrap_or(&rest);
        let (net_text, rest) = block(rest, "net")?;
        let (checkpoint_text, _rest) = block(&rest, "checkpoint")?;
        Ok(ParkedSession {
            token,
            strategy_key,
            net_text,
            checkpoint_text,
            from_client,
        })
    }
}

/// Reads one `key value\n` line.
fn field(text: &str, key: &str) -> Result<(String, String), String> {
    let (line, rest) = text
        .split_once('\n')
        .ok_or_else(|| format!("truncated before '{key}'"))?;
    let value = line
        .strip_prefix(key)
        .and_then(|v| v.strip_prefix(' '))
        .ok_or_else(|| format!("expected '{key} …', found '{line}'"))?;
    Ok((value.to_string(), rest.to_string()))
}

/// Reads one `key <bytelen>\n<bytes>\n` block.
fn block(text: &str, key: &str) -> Result<(String, String), String> {
    let (len_str, rest) = field(text, key)?;
    let len: usize = len_str
        .parse()
        .map_err(|_| format!("'{key}' length is not a number"))?;
    // `len` comes from the file: a corrupt one may be any u64.
    let end = len
        .checked_add(1)
        .filter(|&end| end <= rest.len())
        .ok_or_else(|| format!("'{key}' block truncated"))?;
    if !rest.is_char_boundary(len) || &rest[len..end] != "\n" {
        return Err(format!("'{key}' block length does not line up"));
    }
    Ok((rest[..len].to_string(), rest[end..].to_string()))
}

/// The in-memory registry of parked sessions, optionally mirrored to disk.
#[derive(Debug)]
pub struct ParkingLot {
    sessions: Mutex<HashMap<String, ParkedSession>>,
    state_dir: Option<PathBuf>,
    seq: AtomicU64,
}

fn lock(
    m: &Mutex<HashMap<String, ParkedSession>>,
) -> MutexGuard<'_, HashMap<String, ParkedSession>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl ParkingLot {
    /// An in-memory lot; with `state_dir` set, sessions are also persisted
    /// there and previously persisted ones are restored now.
    pub fn new(state_dir: Option<PathBuf>) -> io::Result<ParkingLot> {
        let lot = ParkingLot {
            sessions: Mutex::new(HashMap::new()),
            state_dir,
            seq: AtomicU64::new(0),
        };
        if let Some(dir) = &lot.state_dir {
            std::fs::create_dir_all(dir)?;
            let mut restored = lock(&lot.sessions);
            for entry in std::fs::read_dir(dir)? {
                let entry = entry?;
                let path = entry.path();
                if path.extension().map(|e| e == "park") != Some(true) {
                    continue;
                }
                // A corrupt or foreign file must not block startup.
                let Ok(text) = std::fs::read_to_string(&path) else {
                    continue;
                };
                let Ok(sess) = ParkedSession::from_text(&text) else {
                    continue;
                };
                restored.insert(sess.token.clone(), sess);
            }
        }
        Ok(lot)
    }

    /// Mints a token unique across restarts: instance fingerprint, wall
    /// clock, and an in-process sequence number (hex-and-dash only, so it is
    /// a safe file-name component — see [`valid_token`]).
    pub fn mint_token(&self, fingerprint: u64) -> String {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        format!("{fingerprint:016x}-{nanos:x}-{seq:x}")
    }

    /// Parks a session. Persists first (temp file + rename), then publishes
    /// in memory, so a token handed to a client is always recoverable.
    pub fn park(&self, session: ParkedSession) -> io::Result<()> {
        debug_assert!(valid_token(&session.token));
        if let Some(dir) = &self.state_dir {
            let final_path = dir.join(format!("{}.park", session.token));
            let tmp_path = dir.join(format!("{}.tmp", session.token));
            std::fs::write(&tmp_path, session.to_text())?;
            std::fs::rename(&tmp_path, &final_path)?;
        }
        lock(&self.sessions).insert(session.token.clone(), session);
        Ok(())
    }

    /// Atomically claims a parked session: exactly one of two concurrent
    /// resumers gets it; the other sees `None`.
    pub fn take(&self, token: &str) -> Option<ParkedSession> {
        if !valid_token(token) {
            return None;
        }
        let sess = lock(&self.sessions).remove(token)?;
        if let Some(dir) = &self.state_dir {
            let _ = std::fs::remove_file(dir.join(format!("{token}.park")));
        }
        Some(sess)
    }

    /// Puts a claimed session back (resume failed before any progress was
    /// consumed, e.g. the pool shed it).
    pub fn put_back(&self, session: ParkedSession) -> io::Result<()> {
        self.park(session)
    }

    /// Number of parked sessions.
    pub fn count(&self) -> usize {
        lock(&self.sessions).len()
    }

    /// The state directory, if persistence is on.
    pub fn state_dir(&self) -> Option<&Path> {
        self.state_dir.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(token: &str) -> ParkedSession {
        ParkedSession {
            token: token.into(),
            strategy_key: "naive".into(),
            net_text: "directed\nnodes 2\nedge 0 1 1 0.1\ndemand 0 1 1\n".into(),
            checkpoint_text: "flowrel-checkpoint v1\nfingerprint 00ff\nkind naive\n".into(),
            from_client: false,
        }
    }

    #[test]
    fn text_roundtrip() {
        let s = sample("abc-123");
        assert_eq!(ParkedSession::from_text(&s.to_text()).unwrap(), s);
        assert!(!s.to_text().contains("origin"), "server-started layout");
        let forged = ParkedSession {
            from_client: true,
            ..s
        };
        let text = forged.to_text();
        assert!(
            text.contains("\nstrategy naive\norigin client\nnet "),
            "{text}"
        );
        assert_eq!(ParkedSession::from_text(&text).unwrap(), forged);
    }

    /// `s`'s text with the byte length of block `key` replaced by `len`.
    fn with_block_len(s: &ParkedSession, key: &str, len: &str) -> String {
        let true_len = match key {
            "net" => s.net_text.len(),
            _ => s.checkpoint_text.len(),
        };
        s.to_text().replace(
            &format!("\n{key} {true_len}\n"),
            &format!("\n{key} {len}\n"),
        )
    }

    #[test]
    fn rejects_corrupt_text() {
        let s = sample("abc-123");
        let text = s.to_text();
        for cut in 0..text.len() {
            assert!(
                ParkedSession::from_text(&text[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        assert!(ParkedSession::from_text("garbage").is_err());
        assert!(ParkedSession::from_text(&text.replace("net 4", "net 40000")).is_err());
        for key in ["net", "checkpoint"] {
            let huge = with_block_len(&s, key, &u64::MAX.to_string());
            assert_ne!(huge, text, "the {key} length was not replaced");
            assert!(ParkedSession::from_text(&huge).is_err(), "{key} u64::MAX");
        }
    }

    #[test]
    fn in_memory_take_is_exclusive() {
        let lot = ParkingLot::new(None).unwrap();
        lot.park(sample("aa-1")).unwrap();
        assert!(lot.take("aa-1").is_some());
        assert!(lot.take("aa-1").is_none());
        assert!(lot.take("../evil").is_none());
    }

    #[test]
    fn persists_and_restores() {
        let dir = std::env::temp_dir().join(format!(
            "flowrel-park-test-{}-{}",
            std::process::id(),
            SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        ));
        let lot = ParkingLot::new(Some(dir.clone())).unwrap();
        lot.park(sample("bb-2")).unwrap();
        drop(lot);
        // corrupt stray files must not block restart
        std::fs::write(dir.join("junk.park"), "not a session").unwrap();
        let huge = with_block_len(&sample("cc-3"), "net", &u64::MAX.to_string());
        std::fs::write(dir.join("cc-3.park"), huge).unwrap();
        let restarted = ParkingLot::new(Some(dir.clone())).unwrap();
        assert_eq!(restarted.count(), 1);
        assert_eq!(restarted.take("bb-2").unwrap(), sample("bb-2"));
        // the take deleted the file: a third start sees nothing
        let third = ParkingLot::new(Some(dir.clone())).unwrap();
        assert_eq!(third.count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn minted_tokens_are_valid_and_distinct() {
        let lot = ParkingLot::new(None).unwrap();
        let a = lot.mint_token(0xdead_beef);
        let b = lot.mint_token(0xdead_beef);
        assert!(valid_token(&a), "{a}");
        assert_ne!(a, b);
    }
}
