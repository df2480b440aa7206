//! Compiler diagnostics.

use std::error::Error;
use std::fmt;

/// A source position (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// An error produced anywhere in the MiniC compilation pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Position the error was detected at, when known.
    pub pos: Option<Pos>,
    /// Human-readable description (lowercase, no trailing period).
    pub message: String,
}

impl CompileError {
    /// Creates an error with a source position.
    pub fn at(pos: Pos, message: impl Into<String>) -> CompileError {
        CompileError {
            pos: Some(pos),
            message: message.into(),
        }
    }

    /// Creates an error without a source position (backend errors).
    pub fn new(message: impl Into<String>) -> CompileError {
        CompileError {
            pos: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(p) => write!(f, "{p}: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl Error for CompileError {}

/// Convenient alias used across the compiler.
pub type Result<T> = std::result::Result<T, CompileError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_with_and_without_pos() {
        let e = CompileError::at(Pos { line: 3, col: 7 }, "unexpected token");
        assert_eq!(e.to_string(), "3:7: unexpected token");
        let e = CompileError::new("register allocation failed");
        assert_eq!(e.to_string(), "register allocation failed");
    }
}
