//! Error types for the storage engine.
//!
//! [`Error`] carries a structured [`ErrorKind`] plus a *retryability* bit.
//! Retryability drives the engine's graceful-degradation plumbing: transient
//! I/O failures (as injected by
//! [`FaultInjectionVfs`](crate::FaultInjectionVfs), or surfaced by the OS as
//! `EINTR`/`EAGAIN`-class conditions) make flush/compaction jobs park and
//! retry with backoff and make the WAL rotate to a fresh file, while
//! non-retryable errors latch the database into a fatal state.

use std::fmt;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Broad classification of an [`Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// An I/O failure in the underlying virtual file system.
    Io,
    /// Stored data failed a checksum or structural validation.
    Corruption,
    /// The caller supplied an invalid argument or option value.
    InvalidArgument,
    /// The database is shutting down or already closed.
    ShuttingDown,
    /// An operation is not supported in the current configuration.
    NotSupported,
    /// The engine exhausted an internal resource (e.g. stall deadline).
    Busy,
}

/// Errors returned by storage-engine operations.
///
/// An error is a `(kind, message, retryable)` triple. Use the kind
/// predicates ([`is_corruption`](Error::is_corruption),
/// [`is_io`](Error::is_io), ...) or [`kind`](Error::kind) to classify, and
/// [`is_retryable`](Error::is_retryable) to decide whether backing off and
/// retrying the operation can succeed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    kind: ErrorKind,
    message: String,
    retryable: bool,
}

impl Error {
    /// Builds an error with an explicit kind. Not retryable by default
    /// except for [`ErrorKind::Busy`].
    pub fn new(kind: ErrorKind, msg: impl Into<String>) -> Self {
        Error {
            kind,
            message: msg.into(),
            retryable: kind == ErrorKind::Busy,
        }
    }

    /// Convenience constructor for corruption errors.
    pub fn corruption(msg: impl Into<String>) -> Self {
        Error::new(ErrorKind::Corruption, msg)
    }

    /// Convenience constructor for I/O errors.
    pub fn io(msg: impl Into<String>) -> Self {
        Error::new(ErrorKind::Io, msg)
    }

    /// Convenience constructor for invalid-argument errors.
    pub fn invalid_argument(msg: impl Into<String>) -> Self {
        Error::new(ErrorKind::InvalidArgument, msg)
    }

    /// Convenience constructor for not-supported errors.
    pub fn not_supported(msg: impl Into<String>) -> Self {
        Error::new(ErrorKind::NotSupported, msg)
    }

    /// Convenience constructor for busy/resource-exhaustion errors
    /// (retryable by default).
    pub fn busy(msg: impl Into<String>) -> Self {
        Error::new(ErrorKind::Busy, msg)
    }

    /// The shutting-down error.
    pub fn shutting_down() -> Self {
        Error::new(ErrorKind::ShuttingDown, "")
    }

    /// Returns a copy of this error with retryability overridden.
    #[must_use]
    pub fn retryable(mut self, retryable: bool) -> Self {
        self.retryable = retryable;
        self
    }

    /// Broad classification of this error.
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }

    /// Human-readable detail message (may be empty).
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Whether backing off and retrying the failed operation can succeed.
    ///
    /// Corruption and invalid-argument errors are never retryable; transient
    /// I/O errors and write stalls are.
    pub fn is_retryable(&self) -> bool {
        self.retryable
    }

    /// True when stored data failed a checksum or structural validation.
    pub fn is_corruption(&self) -> bool {
        self.kind == ErrorKind::Corruption
    }

    /// True for I/O failures in the underlying virtual file system.
    pub fn is_io(&self) -> bool {
        self.kind == ErrorKind::Io
    }

    /// True when the database is shutting down.
    pub fn is_shutting_down(&self) -> bool {
        self.kind == ErrorKind::ShuttingDown
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ErrorKind::Io => write!(f, "i/o error: {}", self.message),
            ErrorKind::Corruption => write!(f, "corruption: {}", self.message),
            ErrorKind::InvalidArgument => write!(f, "invalid argument: {}", self.message),
            ErrorKind::ShuttingDown => write!(f, "database is shutting down"),
            ErrorKind::NotSupported => write!(f, "not supported: {}", self.message),
            ErrorKind::Busy => write!(f, "busy: {}", self.message),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind as IoKind;
        let retryable = matches!(
            e.kind(),
            IoKind::Interrupted | IoKind::WouldBlock | IoKind::TimedOut
        );
        Error::io(e.to_string()).retryable(retryable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = Error::corruption("bad block checksum");
        assert_eq!(e.to_string(), "corruption: bad block checksum");
        let e = Error::invalid_argument("write_buffer_size must be positive");
        assert!(e.to_string().starts_with("invalid argument"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let e: Error = io.into();
        assert!(e.is_io());
        assert!(!e.is_retryable());
    }

    #[test]
    fn transient_io_errors_are_retryable() {
        let io = std::io::Error::new(std::io::ErrorKind::Interrupted, "eintr");
        let e: Error = io.into();
        assert!(e.is_io());
        assert!(e.is_retryable());
    }

    #[test]
    fn retryability_defaults_and_overrides() {
        assert!(!Error::io("disk on fire").is_retryable());
        assert!(Error::io("transient").retryable(true).is_retryable());
        assert!(Error::busy("stall").is_retryable());
        assert!(!Error::corruption("bad").is_retryable());
        assert!(Error::corruption("bad").retryable(true).is_corruption());
    }

    #[test]
    fn kind_predicates() {
        assert_eq!(Error::io("x").kind(), ErrorKind::Io);
        assert!(Error::corruption("x").is_corruption());
        assert!(Error::shutting_down().is_shutting_down());
        assert_eq!(Error::not_supported("x").kind(), ErrorKind::NotSupported);
    }
}
