//! NPB problem classes.
//!
//! Every NPB benchmark is parameterized by a *class* that fixes the grid
//! size / key count / matrix order and the iteration count. The paper
//! evaluates classes S, W and A ("the performance is shown for class A as
//! the largest of the tested classes"); B and C are wired through so the
//! harness can run them where time permits.

use std::fmt;
use std::str::FromStr;

/// An NPB problem class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Class {
    /// Sample: smallest, used for correctness testing (the default).
    #[default]
    S,
    /// Workstation: small.
    W,
    /// Class A: the largest class evaluated in the paper.
    A,
    /// Class B.
    B,
    /// Class C.
    C,
}

impl Class {
    /// All classes in increasing size order.
    pub const ALL: [Class; 5] = [Class::S, Class::W, Class::A, Class::B, Class::C];

    /// The next class *down* the size ladder (C → B → A → W → S), or
    /// `None` from S. This is the resource-exhaustion degradation rule:
    /// a cell that blows a memory or CPU cap retries at a smaller
    /// problem before the supervisor touches its thread count.
    pub fn degrade(self) -> Option<Class> {
        match self {
            Class::S => None,
            Class::W => Some(Class::S),
            Class::A => Some(Class::W),
            Class::B => Some(Class::A),
            Class::C => Some(Class::B),
        }
    }

    /// Cost units for one run of this class: the capacity model of the
    /// `npbd` admission controller. The ratios follow the NPB class
    /// ladder (each class is roughly an order of magnitude more work than
    /// the one below); the absolute scale is "an S run costs 1".
    pub fn cost(self) -> u64 {
        match self {
            Class::S => 1,
            Class::W => 4,
            Class::A => 16,
            Class::B => 64,
            Class::C => 256,
        }
    }

    /// The single-character NPB name (`'S'`, `'W'`, ...).
    pub fn as_char(self) -> char {
        match self {
            Class::S => 'S',
            Class::W => 'W',
            Class::A => 'A',
            Class::B => 'B',
            Class::C => 'C',
        }
    }
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_char())
    }
}

/// Error returned when parsing an unknown class letter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseClassError(pub String);

impl fmt::Display for ParseClassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown NPB class {:?} (expected one of S, W, A, B, C)", self.0)
    }
}

impl std::error::Error for ParseClassError {}

impl FromStr for Class {
    type Err = ParseClassError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "S" | "s" => Ok(Class::S),
            "W" | "w" => Ok(Class::W),
            "A" | "a" => Ok(Class::A),
            "B" | "b" => Ok(Class::B),
            "C" | "c" => Ok(Class::C),
            other => Err(ParseClassError(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for c in Class::ALL {
            let s = c.to_string();
            assert_eq!(s.parse::<Class>().unwrap(), c);
            assert_eq!(s.to_lowercase().parse::<Class>().unwrap(), c);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("D".parse::<Class>().is_err());
        assert!("".parse::<Class>().is_err());
        assert!("SS".parse::<Class>().is_err());
    }

    #[test]
    fn ordering_is_by_size() {
        assert!(Class::S < Class::W && Class::W < Class::A);
        assert!(Class::A < Class::B && Class::B < Class::C);
    }

    #[test]
    fn degrade_walks_the_size_ladder_to_s() {
        assert_eq!(Class::C.degrade(), Some(Class::B));
        assert_eq!(Class::B.degrade(), Some(Class::A));
        assert_eq!(Class::A.degrade(), Some(Class::W));
        assert_eq!(Class::W.degrade(), Some(Class::S));
        assert_eq!(Class::S.degrade(), None, "nothing below the sample class");
    }
}
