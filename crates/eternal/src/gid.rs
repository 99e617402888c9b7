//! Identifiers used by the replication and recovery mechanisms.

use std::fmt;

/// Identifies a replicated object (an *object group*). Every replica of
/// the group, on every processor, shares this id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{}", self.0)
    }
}

/// Which way an IIOP message flows on a logical connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// Client group → server group (GIOP Request).
    Request,
    /// Server group → client group (GIOP Reply).
    Reply,
}

impl Direction {
    /// The octet a direction travels as.
    pub fn wire_byte(self) -> u8 {
        match self {
            Direction::Request => 0,
            Direction::Reply => 1,
        }
    }
}

/// Names the logical connection between a replicated client and a
/// replicated server. Every replica-level TCP connection between the
/// two groups maps onto this one name; it scopes the GIOP request-id
/// space (§4.2.1) and the handshake state (§4.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnectionName {
    /// The invoking group.
    pub client: GroupId,
    /// The invoked group.
    pub server: GroupId,
}

impl fmt::Display for ConnectionName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.client, self.server)
    }
}

/// Uniquely identifies one logical operation (invocation or response)
/// for duplicate suppression: replicas of a deterministic client assign
/// the same GIOP request id to the same logical invocation, so the
/// triple (connection, direction, request id) names it system-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OperationId {
    /// The logical connection.
    pub conn: ConnectionName,
    /// Request or reply.
    pub direction: Direction,
    /// The GIOP request id.
    pub request_id: u32,
}

impl fmt::Display for OperationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = match self.direction {
            Direction::Request => "req",
            Direction::Reply => "rep",
        };
        write!(f, "{}#{}/{}", self.conn, self.request_id, d)
    }
}

/// Identifies one state-transfer episode (a `get_state`/`set_state`
/// pair) so the fabricated `set_state` can be matched to the logged
/// `get_state` synchronization point, and duplicates suppressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransferId(pub u64);

impl fmt::Display for TransferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xfer{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let conn = ConnectionName {
            client: GroupId(1),
            server: GroupId(2),
        };
        assert_eq!(conn.to_string(), "G1->G2");
        let op = OperationId {
            conn,
            direction: Direction::Request,
            request_id: 350,
        };
        assert_eq!(op.to_string(), "G1->G2#350/req");
        assert_eq!(TransferId(3).to_string(), "xfer3");
    }

    #[test]
    fn operation_ids_distinguish_direction() {
        let conn = ConnectionName {
            client: GroupId(1),
            server: GroupId(2),
        };
        let req = OperationId {
            conn,
            direction: Direction::Request,
            request_id: 5,
        };
        let rep = OperationId {
            direction: Direction::Reply,
            ..req
        };
        assert_ne!(req, rep);
    }
}
