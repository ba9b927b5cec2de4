//! Transport abstraction: one connection / listener type over both TCP and
//! Unix-domain sockets, so the session loop, the client library, and the
//! fault-injection harness are transport-agnostic.
//!
//! Addresses are spelled `unix:/path/to.sock` or `host:port`. Unix sockets
//! are only available on Unix; on other platforms `unix:` addresses fail
//! with a clear error instead of being silently reinterpreted.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};

/// A parsed bind/connect address.
#[derive(Clone, Debug, PartialEq)]
pub enum BindAddr {
    /// TCP `host:port`.
    Tcp(String),
    /// Unix-domain socket path.
    Unix(std::path::PathBuf),
}

impl BindAddr {
    /// Parses `unix:/path` or `host:port`.
    pub fn parse(s: &str) -> Result<BindAddr, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix: address needs a socket path".into());
            }
            Ok(BindAddr::Unix(path.into()))
        } else if s.contains(':') {
            Ok(BindAddr::Tcp(s.to_string()))
        } else {
            Err(format!(
                "address '{s}' is neither 'unix:/path' nor 'host:port'"
            ))
        }
    }
}

impl std::fmt::Display for BindAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindAddr::Tcp(a) => write!(f, "{a}"),
            BindAddr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// One accepted or dialed connection.
#[derive(Debug)]
pub enum Conn {
    /// A TCP stream.
    Tcp(TcpStream),
    /// A Unix-domain stream.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    /// Dials `addr`.
    pub fn connect(addr: &BindAddr) -> io::Result<Conn> {
        match addr {
            BindAddr::Tcp(a) => {
                let s = TcpStream::connect(a)?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            #[cfg(unix)]
            BindAddr::Unix(p) => Ok(Conn::Unix(UnixStream::connect(p)?)),
            #[cfg(not(unix))]
            BindAddr::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            )),
        }
    }

    /// Sets (or clears) the read timeout. The session loop uses short
    /// timeouts as its polling interval.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(dur),
        }
    }

    /// Sets (or clears) the write timeout, bounding how long a slow reader
    /// can stall a reply.
    pub fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(dur),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_write_timeout(dur),
        }
    }

    /// Switches non-blocking mode, so a read takes only bytes that have
    /// already arrived (`WouldBlock` when there are none).
    pub fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nonblocking(nb),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_nonblocking(nb),
        }
    }

    /// Half-closes the write side (used by the fault harness to simulate
    /// impolite disconnects) or both sides.
    pub fn shutdown(&self, how: std::net::Shutdown) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(how),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(how),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// A bound listening socket.
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener (the path is removed on drop).
    #[cfg(unix)]
    Unix(UnixListener, std::path::PathBuf),
}

impl Listener {
    /// Binds `addr`. A pre-existing Unix socket file is removed first (the
    /// daemon owns its socket path; a stale file from a crashed run must not
    /// block restart).
    pub fn bind(addr: &BindAddr) -> io::Result<Listener> {
        match addr {
            BindAddr::Tcp(a) => Ok(Listener::Tcp(TcpListener::bind(a)?)),
            #[cfg(unix)]
            BindAddr::Unix(p) => {
                if p.exists() {
                    std::fs::remove_file(p)?;
                }
                Ok(Listener::Unix(UnixListener::bind(p)?, p.clone()))
            }
            #[cfg(not(unix))]
            BindAddr::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            )),
        }
    }

    /// Puts the listener in non-blocking mode so the accept loop can poll
    /// the shutdown token between accepts.
    pub fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.set_nonblocking(nb),
        }
    }

    /// Accepts one connection if one is pending; `Ok(None)` on `WouldBlock`.
    pub fn accept(&self) -> io::Result<Option<Conn>> {
        let res = match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                Conn::Tcp(s)
            }),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
        };
        match res {
            Ok(c) => Ok(Some(c)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// The concrete bound address — for TCP this resolves `:0` to the real
    /// port, which the tests rely on.
    pub fn local_addr(&self) -> io::Result<BindAddr> {
        match self {
            Listener::Tcp(l) => Ok(BindAddr::Tcp(l.local_addr()?.to_string())),
            #[cfg(unix)]
            Listener::Unix(_, p) => Ok(BindAddr::Unix(p.clone())),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, p) = self {
            let _ = std::fs::remove_file(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_addresses() {
        assert_eq!(
            BindAddr::parse("127.0.0.1:4500").unwrap(),
            BindAddr::Tcp("127.0.0.1:4500".into())
        );
        assert_eq!(
            BindAddr::parse("unix:/tmp/x.sock").unwrap(),
            BindAddr::Unix("/tmp/x.sock".into())
        );
        assert!(BindAddr::parse("nonsense").is_err());
        assert!(BindAddr::parse("unix:").is_err());
    }
}
